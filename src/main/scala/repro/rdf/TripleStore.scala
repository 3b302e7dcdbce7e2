package repro.rdf

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.kg.KG

/** "Virtuoso-lite": an indexed RDF triple store over Spark DataFrames.
  *
  * Real RDF engines keep up to six permutation indices (hexastore; Weiss et
  * al., VLDB 2008) so the join of two triple patterns on a shared variable
  * reads both sides in key order instead of re-sorting the graph. The
  * DataFrame stand-ins are the views the extraction joins read, cached and
  * hash-partitioned on their join key:
  *  - [[byS]] — partitioned by subject  (S·· index role)
  *  - [[byO]] — partitioned by object   (O·· index role)
  *  - [[typeTriples]] — partitioned by subject, the typed node
  *
  * All three share one partition count, the session's default parallelism,
  * so they are co-partitioned: a join of a type pattern with a subject- or
  * object-keyed view, and the ``distinct`` over its result, run as one stage
  * with no shuffle. They are join inputs, not filter indexes — a constant
  * subject, predicate or object is a filter that scans every partition.
  *
  * ``rdf:type`` triples are virtual: synthesised from the node-type table
  * with class-node objects, mirroring engines that store type quads.
  */
final class TripleStore(val kg: KG) {
  private val schema = kg.schema

  /** Partition count shared by the co-partitioned views. */
  private val partitions = kg.triples.sparkSession.sparkContext.defaultParallelism

  private def keyedOn(df: DataFrame, key: String): DataFrame =
    df.repartition(partitions, col(key)).persist(StorageLevel.MEMORY_AND_DISK)

  /** Subject-partitioned index view. */
  lazy val byS: DataFrame = keyedOn(kg.triples, "s")

  /** Object-partitioned index view. */
  lazy val byO: DataFrame = keyedOn(kg.triples, "o")

  /** Virtual ``rdf:type`` triples: ``(node, typeP, classNode(ntype))``,
    * partitioned by node like [[byS]].
    */
  lazy val typeTriples: DataFrame =
    keyedOn(
      kg.nodeTypes.select(
        col("id") as "s",
        lit(schema.typeP) as "p",
        (lit(schema.totalNodes) + col("ntype").cast("long")) as "o",
      ),
      "s")

  /** Materialise index views (the engine's one-off load/index build). Kept
    * separate so benches can exclude it from per-query extraction time,
    * exactly as the paper excludes Virtuoso's bulk load.
    */
  def warm(): TripleStore = {
    views.foreach(_.count())
    this
  }

  /** Free the index views' storage; the KG's own tables stay. */
  def close(): Unit = views.foreach(KG.release)

  /** Every cached view, so [[warm]] and [[close]] cannot disagree. */
  private def views: Seq[DataFrame] = Seq(byS, byO, typeTriples)

  /** Resolve an IRI to the id it denotes (predicate ids for ``rel:``,
    * class-node ids for ``type:``, entity ids for ``node:``).
    */
  def resolve(iri: IRI): Long = iri.name match {
    case n if n.startsWith("rel:")  => schema.edgeType(n.drop(4)).id.toLong
    case "rdf:type"                 => schema.typeP.toLong
    case n if n.startsWith("type:") => schema.classNode(schema.nodeType(n.drop(5)).id)
    case n if n.startsWith("node:") => n.drop(5).toLong
    case n => throw new IllegalArgumentException(s"unresolvable IRI <$n>")
  }
}

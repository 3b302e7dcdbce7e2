package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.kg.KG
import repro.obs.timed
import repro.rdf.{Endpoint, Query, Sparql}
import repro.sampling.{BRW, IBS, URW}
import repro.synth.{LPTask, NCTask, Tasks}

/** One TOSG extraction: the subgraph, its wall-clock extraction cost, and
  * bookkeeping for the benches.
  */
final case class Extraction(
    subgraph: KG,
    extractSeconds: Double,
    method: String,
    batches: Int = 0,
    sparqlQueries: Seq[String] = Nil,
)

/** KG-TOSA: task-oriented subgraph extraction (Section IV). The default
  * method is SPARQL-based (Algorithm 3); BRW and IBS are the developed
  * sampling baselines; URW is GraphSAINT's type-blind baseline sampler.
  */
object KGTOSA {

  /** Fetch every subquery and merge the results into a KG' (Algorithm 3's
    * final ``distinct``, the one dedup of the extraction), materialised so
    * the measured extraction time includes doing the work. The triples are
    * checkpointed first and the node set derived from that checkpoint:
    * endpoints of the triples plus all targets (targets with no matched
    * edge must stay — they carry labels), types joined back from the full
    * KG. The per-subquery results are freed once KG' is materialised.
    *
    * @param restrict narrows the merged triples before they are checkpointed
    */
  private def extract(endpoint: Endpoint, queries: Seq[Query], bs: Long, pattern: GraphPattern,
                      targets: DataFrame, restrict: DataFrame => DataFrame = identity): Extraction = {
    val kg = endpoint.store.kg
    val ((sub, nBatches), secs) = timed {
      val results = queries.map(q => endpoint.fetch(q, bs))
      val merged = results.map(_.rows).reduce(_ union _).distinct()
        .select(col("s"), col("p").cast("int") as "p", col("o"))
      val triples = restrict(merged).localCheckpoint(true)
      val ids = triples.select(col("s") as "id")
        .union(triples.select(col("o") as "id"))
        .union(targets.select(col("id")))
      val sub = KG(kg.schema, triples, kg.nodeTypes.join(ids, Seq("id"), "left_semi").localCheckpoint(true))
      results.foreach(r => KG.release(r.materialised))
      (sub, results.map(_.batches).sum)
    }
    Extraction(sub, secs, s"KG-TOSA_d${pattern.d}h${pattern.h}", nBatches, queries.map(Sparql.render))
  }

  /** SPARQL-based TOSG extraction (Algorithm 3) for an NC task: one
    * paginated subquery per pattern layer, merged, deduplicated.
    *
    * @param targetSample if set (h = 1 only), restrict the TOSG to this
    *                     subset of targets — Table III's protocol, where all
    *                     methods extract around the same number of roots
    */
  def sparqlExtract(endpoint: Endpoint, task: NCTask, pattern: GraphPattern, bs: Long,
                    targetSample: Option[DataFrame] = None): Extraction = {
    val kg = endpoint.store.kg
    require(targetSample.isEmpty || pattern.h == 1, "target sampling only supported for h = 1 patterns")
    val queries = pattern.queries(task.targetType)
    val targets = targetSample.getOrElse(Tasks.targets(kg, task))
    // h = 1: every extracted triple touches a target at s (d ≥ 1) or o (d = 2)
    def touchingSample(ts: DataFrame)(triples: DataFrame): DataFrame = {
      val t = ts.select(col("id"))
      val onS = triples.join(t.withColumnRenamed("id", "s"), Seq("s"), "left_semi")
      if (pattern.d == 2)
        onS.union(triples.join(t.withColumnRenamed("id", "s"), Seq("s"), "left_anti")
          .join(t.withColumnRenamed("id", "o"), Seq("o"), "left_semi").select("s", "p", "o"))
      else onS
    }
    extract(endpoint, queries, bs, pattern, targets, targetSample.fold(identity[DataFrame] _)(touchingSample))
  }

  /** SPARQL-based TOSG extraction for an LP task (d2h1 default): per-type
    * subgraphs of the predicate's subject and object types plus the bridge
    * pattern.
    */
  def sparqlExtractLP(endpoint: Endpoint, task: LPTask, pattern: GraphPattern, bs: Long): Extraction = {
    val kg = endpoint.store.kg
    val et = kg.schema.edgeType(task.predicate)
    val ti = kg.schema.nodeTypes(et.srcType).name
    val tj = kg.schema.nodeTypes(et.dstType).name
    val queries = pattern.lpQueries(ti, tj, task.predicate)
    val targets = kg.nodesOfType(ti).union(kg.nodesOfType(tj))
    extract(endpoint, queries, bs, pattern, targets)
  }

  /** BRW baseline extraction (Algorithm 1). */
  def brwExtract(kg: KG, task: NCTask, bs: Int, h: Int, seed: Int): Extraction = {
    val (sub, secs) = timed(BRW.sample(kg, Tasks.targets(kg, task), bs, h, seed).cached())
    Extraction(sub, secs, "BRW")
  }

  /** IBS baseline extraction (Algorithm 2). */
  def ibsExtract(kg: KG, task: NCTask, bs: Int, k: Int, alpha: Double, seed: Int): Extraction = {
    val (sub, secs) = timed(IBS.sample(kg, Tasks.targets(kg, task), bs, k, alpha, seed).cached())
    Extraction(sub, secs, "IBS")
  }

  /** URW baseline (GraphSAINT's type-blind sampler) — the paper's Table III
    * "RW" column.
    */
  def urwExtract(kg: KG, bs: Int, h: Int, seed: Int): Extraction = {
    val (sub, secs) = timed(URW.sample(kg, bs, h, seed).cached())
    Extraction(sub, secs, "URW")
  }
}

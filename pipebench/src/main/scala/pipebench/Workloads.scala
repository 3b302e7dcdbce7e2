package pipebench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.Oracle
import repro.core.{Extraction, GraphPattern, KGTOSA, Transform}
import repro.gnn.{Aggregation, Features, LinkPred, TrainParams, Trainers}
import repro.kg.KG
import repro.metrics.SubgraphQuality
import repro.rdf.{Endpoint, Query, TripleStore}
import repro.sampling.{Induce, URW}
import repro.synth.{KGBench, KGSpec, Tasks}

/** Fixed inputs shared by every workload. */
object Settings {

  /** KG size relative to the repository's scale 1.0 (MAG-42M: 42,410
    * nodes and 165,880 triples at 1.0).
    */
  val scale = 0.05

  /** Page size of the paginated endpoint, scaled with the KG so every
    * subquery needs the same number of pages as at scale 1.0 with the
    * pipeline's bs = 20000.
    */
  val bs: Long = math.round(20000 * scale)

  /** GraphSAINT mini-batches per training call. The trainer's default is
    * six, but each batch adds about 4 s to a pass and the runs' time budget
    * allows one (README, Settings); every other parameter keeps its default.
    */
  val batches = 1

  val cores: Int = Runtime.getRuntime.availableProcessors()

  /** Session settings of the repository's table jobs. */
  val spark: Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.maxPlanStringLength" -> "8192",
    "spark.ui.enabled" -> "false",
  )

  def session(): SparkSession =
    spark.foldLeft(SparkSession.builder.master(s"local[$cores]").appName("pipebench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()

  /** The workload seed shifts the repository's own seeds, so seed 0 runs
    * exactly the repository's defaults.
    */
  def kgSpec(base: KGSpec, seed: Int): KGSpec = base.copy(seed = base.seed + seed)
  def trainParams(seed: Int): TrainParams = TrainParams(batches = batches, seed = TrainParams().seed + seed)
  def lpSeed(seed: Int): Int = 13 + seed // LinkPred.train's default seed is 13

  /** Bytes Spark holds for cached and checkpointed data, memory plus disk. */
  def cachedMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
}

/** One benchmark workload: a set-up and a pass of public calls into the
  * program, both drawn from the workload seed.
  */
trait Workload {
  def name: String

  /** What the pass's score is on this workload. */
  def score: String

  /** Generate and checkpoint the KG (and warm a store, if the workload has
    * one). The caller times this call as one set-up.
    */
  def setUp(spark: SparkSession, seed: Int, tr: Tracer): Prepared
}

/** A set-up workload, ready to run passes. */
trait Prepared {
  /** One pass: only the public calls the pipeline makes, each in a span.
    * The caller times this call from outside.
    */
  def pass(tr: Tracer): Pass

  /** Input size facts of the set-up, such as the triple count. */
  def sizes: Seq[(String, Double)]

  def release(): Unit
}

/** What one pass produced, kept until the runner has checked and released it. */
trait Pass {
  /** The pipeline's quality, in percent; deterministic for a seed. */
  def score: Double

  /** Values that must repeat exactly in every pass of a run. */
  def fingerprint: Seq[Double]

  /** Check the pass's KG' against DuckDB; throws on a mismatch. */
  def check(): Unit

  /** Standalone calls into the layers below the pass's public calls, each
    * in a span, with the same arguments the public calls use internally.
    * Returns counts of the work done, keyed by per-layer metric name.
    */
  def probe(tr: Tracer): Seq[(String, Double)]

  def release(): Unit
}

object Workloads {
  val all: Seq[Workload] = Seq(KgpPvMag, LpAaDblp)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Generation and checkpoint, then a warm store, each in its span. */
  def buildStore(spark: SparkSession, spec: KGSpec, tr: Tracer): (KG, TripleStore) = {
    val kg = tr.span("synth.generate")(KGBench.generate(spark, spec, Settings.scale).cached())
    val store = tr.span("rdf.warm")(new TripleStore(kg).warm())
    (kg, store)
  }

  /** Each subquery through ``Endpoint.paginated`` and through
    * ``Endpoint.select`` + count, in spans ``rdf.paginated`` and
    * ``rdf.direct``; returns the page and row counts.
    */
  def probeEndpoint(endpoint: Endpoint, queries: Seq[Query], tr: Tracer): Seq[(String, Double)] = {
    var pages = 0L
    var rows = 0L
    for (q <- queries) {
      tr.span("rdf.paginated") {
        val (df, n) = endpoint.paginated(q, Settings.bs)
        pages += n
        rows += df.count()
      }
      tr.span("rdf.direct")(endpoint.select(q).count())
    }
    Seq("rdf.pages" -> pages.toDouble, "rdf.rows_fetched" -> rows.toDouble)
  }

  /** Output sizes of an extraction and its distinct triples per fetched row. */
  def extractionSizes(ex: Extraction, rowsFetched: Double): Seq[(String, Double)] = {
    val triples = ex.subgraph.triples.count().toDouble
    Seq(
      "core.kgp_triples" -> triples,
      "core.kgp_nodes" -> ex.subgraph.nodeTypes.count().toDouble,
      "rdf.dedup_yield" -> (if (rowsFetched > 0) triples / rowsFetched else 0.0),
    )
  }

  /** SQL range test on a VARCHAR id column of the oracle's triples table. */
  def inRange(column: String, offset: Long, count: Long): String =
    s"(CAST($column AS BIGINT) >= $offset AND CAST($column AS BIGINT) < ${offset + count})"
}

/** The paper's headline pipeline on MAG, task PV: SPARQL extraction of the
  * d1h1 KG', the transform and GraphSAINT training with inference, all on
  * KG'. The traced run also measures KG' with the Table III metrics.
  */
object KgpPvMag extends Workload {
  val name = "kgp-pv-mag"
  val score = "NC test accuracy on KG' (%)"
  private val task = Tasks.PV_MAG
  private val pattern = GraphPattern(1, 1)

  def setUp(spark: SparkSession, seed: Int, tr: Tracer): Prepared = {
    val (kg, store) = Workloads.buildStore(spark, Settings.kgSpec(KGBench.MAG, seed), tr)
    val endpoint = new Endpoint(store, Settings.cores)
    val params = Settings.trainParams(seed)

    new Prepared {
      def sizes: Seq[(String, Double)] = Seq("synth.triples" -> kg.triples.count().toDouble)

      def release(): Unit = { store.close(); kg.uncache() }

      def pass(tr: Tracer): Pass = {
        val ex = tr.span("core.extract")(KGTOSA.sparqlExtract(endpoint, task, pattern, Settings.bs))
        val g = ex.subgraph
        val adj = tr.span("core.transform")(Transform.toAdjacency(g))
        val r = tr.span("gnn.train")(Trainers.train("GraphSAINT", g, task, params))

        new Pass {
          val score: Double = r.accuracy * 100
          def fingerprint: Seq[Double] = Seq(r.accuracy)

          def check(): Unit = {
            val t = kg.schema.nodeType(task.targetType)
            Oracle.assertEquivalent(g.triples.distinct(),
              s"SELECT DISTINCT s, p, o FROM triples WHERE ${Workloads.inRange("s", t.offset, t.count)}",
              "triples" -> kg.triples)
          }

          def probe(tr: Tracer): Seq[(String, Double)] = {
            tr.span("metrics.quality")(SubgraphQuality.measure(g, Tasks.targets(kg, task)))
            val rdf = Workloads.probeEndpoint(endpoint, pattern.queries(task.targetType), tr)
            rdf ++ Workloads.extractionSizes(ex, rdf.toMap.apply("rdf.rows_fetched")) ++ probeTrainer(g, tr)
          }

          def release(): Unit = { adj.nodes.unpersist(); adj.edges.unpersist(); g.uncache() }
        }
      }

      /** The steps of ``Trainers.train("GraphSAINT")``, one standalone call
        * per step, each result cached so the next step's span excludes it.
        */
      private def probeTrainer(g: KG, tr: Tracer): Seq[(String, Double)] = {
        val f = Features.dim(g)
        val (feats, labeled) = tr.span("gnn.features") {
          val feats = Features.nodeFeatures(g).cache()
          val labeled = Tasks.labeledSplit(g, task).cache()
          feats.count(); labeled.count()
          (feats, labeled)
        }
        val featCols = (feats.columns.filter(_ != "id") ++
          (1 to params.l).flatMap(hp => (0 until f).map(j => s"h${hp}_f$j"))).toSeq
        def collectFold(agg: DataFrame, fold: Int): Long =
          agg.join(labeled, "id").filter(col("fold") === fold)
            .select((featCols.map(col) :+ col("label")): _*).collect().length.toLong

        var batchNodes = 0L
        var collected = 0L
        for (b <- 0 until params.batches) {
          val vs = tr.span("sampling.walk") {
            val vs = URW.visitedSet(g, params.rootsPerBatch, params.walkLen, params.seed * 100 + b).cache()
            batchNodes += vs.count()
            vs
          }
          val sub = tr.span("sampling.induce") {
            val s = Induce.extractSubgraph(g, vs)
            val sub = KG(g.schema, s.triples.cache(), s.nodeTypes.cache())
            sub.triples.count(); sub.nodeTypes.count()
            sub
          }
          tr.span("gnn.aggregate") {
            val subFeats = feats.join(sub.nodeTypes.select("id"), "id")
            collected += collectFold(Aggregation.aggregate(sub, subFeats, params.l, seed = params.seed), 0)
          }
          vs.unpersist(); sub.triples.unpersist(); sub.nodeTypes.unpersist()
        }
        tr.span("gnn.infer") {
          collected += collectFold(Aggregation.aggregate(g, feats, params.l, seed = params.seed), 2)
        }
        feats.unpersist(); labeled.unpersist()
        Seq("sampling.batch_nodes" -> batchNodes.toDouble, "gnn.collect_rows" -> collected.toDouble)
      }
    }
  }
}

/** Link prediction on DBLP, task AA: SPARQL extraction of the d2h1 KG'
  * (per-type subqueries plus the bridge), then MorsE on FG and on KG'.
  */
object LpAaDblp extends Workload {
  val name = "lp-aa-dblp"
  val score = "MorsE Hits@10 on KG' (%)"
  private val task = Tasks.AA_DBLP
  private val pattern = GraphPattern(2, 1)

  def setUp(spark: SparkSession, seed: Int, tr: Tracer): Prepared = {
    val (kg, store) = Workloads.buildStore(spark, Settings.kgSpec(KGBench.DBLP, seed), tr)
    val endpoint = new Endpoint(store, Settings.cores)
    val lpSeed = Settings.lpSeed(seed)
    val et = kg.schema.edgeType(task.predicate)
    val ti = kg.schema.nodeTypes(et.srcType)
    val tj = kg.schema.nodeTypes(et.dstType)

    new Prepared {
      def sizes: Seq[(String, Double)] = Seq("synth.triples" -> kg.triples.count().toDouble)

      def release(): Unit = { store.close(); kg.uncache() }

      def pass(tr: Tracer): Pass = {
        val ex = tr.span("core.extract")(KGTOSA.sparqlExtractLP(endpoint, task, pattern, Settings.bs))
        val onFg = tr.span("gnn.linkpred")(LinkPred.train(kg, task, "MorsE", seed = lpSeed))
        val onKgp = tr.span("gnn.linkpred")(LinkPred.train(ex.subgraph, task, "MorsE", seed = lpSeed))

        new Pass {
          val score: Double = onKgp.hits10 * 100
          def fingerprint: Seq[Double] = Seq(onFg.hits10, onKgp.hits10)

          def check(): Unit = {
            val touches = Seq(ti, tj).flatMap(t =>
              Seq(Workloads.inRange("t.s", t.offset, t.count), Workloads.inRange("t.o", t.offset, t.count)))
            val bridge = s"EXISTS (SELECT 1 FROM triples b WHERE b.p = '${et.id}' AND b.s = t.s AND b.o = t.o)"
            Oracle.assertEquivalent(ex.subgraph.triples.distinct(),
              s"SELECT DISTINCT t.s AS s, t.p AS p, t.o AS o FROM triples t " +
                s"WHERE ${(touches :+ bridge).mkString(" OR ")}",
              "triples" -> kg.triples)
          }

          def probe(tr: Tracer): Seq[(String, Double)] = {
            val rdf = Workloads.probeEndpoint(endpoint, pattern.lpQueries(ti.name, tj.name, task.predicate), tr)
            rdf ++ Workloads.extractionSizes(ex, rdf.toMap.apply("rdf.rows_fetched")) :+
              ("gnn.linkpred_collect_rows" ->
                (onFg.trainTriples + onFg.testTriples + onKgp.trainTriples + onKgp.testTriples).toDouble)
          }

          def release(): Unit = ex.subgraph.uncache()
        }
      }
    }
  }
}

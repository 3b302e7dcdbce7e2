package pipebench

/** A reported metric. ``better`` is "lower" or "higher". */
final case class Metric(name: String, unit: String, better: String = "lower") {
  require(Metrics.validName(name), s"invalid metric name $name")
}

/** Every metric the benchmark reports, in report order. BENCHMARK.json at
  * the repository root lists the same names.
  */
object Metrics {

  private val namePattern = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  /** Letters, digits, ``_``, ``.`` and ``-``, starting with a letter or
    * digit, at most 64 characters.
    */
  def validName(name: String): Boolean = namePattern.matches(name)

  /** Untraced runs. */
  val endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("pipeline_s", "s"),
    Metric("peak_cached_mb", "MB"),
  )

  /** The traced run. A metric of a layer the workload does not call is 0. */
  val perLayer: Seq[Metric] = Seq(
    Metric("synth.generate_s", "s"),
    Metric("synth.triples", "count"),
    Metric("rdf.warm_s", "s"),
    Metric("rdf.cached_mb", "MB"),
    Metric("rdf.paginated_s", "s"),
    Metric("rdf.direct_s", "s"),
    Metric("rdf.pagination_overhead", "ratio"),
    Metric("rdf.pages", "count"),
    Metric("rdf.rows_fetched", "count"),
    Metric("rdf.jobs", "count"),
    Metric("rdf.shuffle_mb", "MB"),
    Metric("rdf.dedup_yield", "ratio", "higher"),
    Metric("core.extract_s", "s"),
    Metric("core.extract_self_s", "s"),
    Metric("core.kgp_triples", "count"),
    Metric("core.kgp_nodes", "count"),
    Metric("core.transform_s", "s"),
    Metric("core.transform_shuffle_mb", "MB"),
    Metric("core.transform_skew", "ratio"),
    Metric("sampling.walk_s", "s"),
    Metric("sampling.induce_s", "s"),
    Metric("sampling.batch_nodes", "count"),
    Metric("sampling.jobs", "count"),
    Metric("sampling.shuffle_mb", "MB"),
    Metric("gnn.train_s", "s"),
    Metric("gnn.features_s", "s"),
    Metric("gnn.aggregate_s", "s"),
    Metric("gnn.infer_s", "s"),
    Metric("gnn.head_s", "s"),
    Metric("gnn.collect_rows", "count"),
    Metric("gnn.jobs", "count"),
    Metric("gnn.shuffle_mb", "MB"),
    Metric("gnn.linkpred_s", "s"),
    Metric("gnn.linkpred_collect_rows", "count"),
    Metric("metrics.quality_s", "s"),
    Metric("metrics.jobs", "count"),
    Metric("spark.jobs", "count"),
    Metric("spark.tasks", "count"),
    Metric("spark.tasks_failed", "count"),
    Metric("spark.spill_mb", "MB"),
    Metric("trace.pass_s", "s"),
    Metric("trace.gap_s", "s"),
    Metric("trace.overhead_s", "s"),
  )
}

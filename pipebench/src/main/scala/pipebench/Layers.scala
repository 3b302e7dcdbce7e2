package pipebench

/** Per-layer metrics of a traced run, derived from its spans. Spans of run
  * ``setup`` time the traced set-up, runs ``pass<k>`` the traced passes
  * (medians over passes are reported) and run ``probe`` the standalone
  * sub-layer calls made after the last traced pass.
  */
object Layers {

  private val Mb = 1e6

  /** @param passes   run id and outside-timed seconds of each traced pass
    * @param counts   counts returned by the probe, keyed by metric name
    * @param sizes    set-up input sizes, keyed by metric name
    * @param overhead traced minus untraced median pass seconds
    */
  def metrics(tr: Tracer, passes: Seq[(String, Double)], counts: Seq[(String, Double)],
              sizes: Seq[(String, Double)], overhead: Double): Seq[(String, Double)] = {
    val spans = tr.spans
    def named(run: String, names: String*): Seq[Span] =
      spans.filter(s => s.runId == run && names.contains(s.name))
    def secs(run: String, names: String*): Double = named(run, names: _*).map(_.seconds).sum
    def tally(run: String, names: String*): Tally =
      named(run, names: _*).foldLeft(new Tally)((t, s) => t.add(tr.tally(s)))

    val perPass = passes.map { case (run, total) =>
      val root = named(run, "pass").head
      val top = spans.filter(_.parent.contains(root.id))
      val whole = tr.tally(root)
      val transform = tally(run, "core.transform")
      val train = tally(run, "gnn.train")
      Map(
        "core.extract_s" -> secs(run, "core.extract"),
        "core.transform_s" -> secs(run, "core.transform"),
        "core.transform_shuffle_mb" -> transform.shuffleWriteBytes / Mb,
        "core.transform_skew" -> transform.skew,
        "gnn.train_s" -> secs(run, "gnn.train"),
        "gnn.head_s" -> (secs(run, "gnn.train") - train.jobSeconds),
        "gnn.jobs" -> train.jobs.toDouble,
        "gnn.shuffle_mb" -> train.shuffleWriteBytes / Mb,
        "gnn.linkpred_s" -> secs(run, "gnn.linkpred"),
        "spark.jobs" -> whole.jobs.toDouble,
        "spark.tasks" -> whole.tasks.toDouble,
        "spark.tasks_failed" -> whole.failedTasks.toDouble,
        "spark.spill_mb" -> whole.spillBytes / Mb,
        "trace.pass_s" -> total,
        "trace.gap_s" -> (total - top.map(_.seconds).sum),
      )
    }
    val pass = perPass.head.keys.map(k => k -> Stats.median(perPass.map(_(k)))).toMap

    val probe = "probe"
    val paginated = secs(probe, "rdf.paginated")
    val direct = secs(probe, "rdf.direct")
    val rdf = tally(probe, "rdf.paginated")
    val sampling = tally(probe, "sampling.walk", "sampling.induce")
    val generate = named("setup", "synth.generate").headOption
    val warm = named("setup", "rdf.warm").headOption

    val derived = Map(
      "synth.generate_s" -> generate.map(_.seconds).getOrElse(0.0),
      "rdf.warm_s" -> warm.map(_.seconds).getOrElse(0.0),
      "rdf.cached_mb" -> warm.map(_.cachedMbAtEnd - generate.map(_.cachedMbAtEnd).getOrElse(0.0)).getOrElse(0.0),
      "rdf.paginated_s" -> paginated,
      "rdf.direct_s" -> direct,
      "rdf.pagination_overhead" -> (if (direct > 0) paginated / direct else 0.0),
      "rdf.jobs" -> rdf.jobs.toDouble,
      "rdf.shuffle_mb" -> rdf.shuffleWriteBytes / Mb,
      "core.extract_self_s" -> (if (pass("core.extract_s") > 0) pass("core.extract_s") - paginated else 0.0),
      "sampling.walk_s" -> secs(probe, "sampling.walk"),
      "sampling.induce_s" -> secs(probe, "sampling.induce"),
      "sampling.jobs" -> sampling.jobs.toDouble,
      "sampling.shuffle_mb" -> sampling.shuffleWriteBytes / Mb,
      "gnn.features_s" -> secs(probe, "gnn.features"),
      "gnn.aggregate_s" -> secs(probe, "gnn.aggregate"),
      "gnn.infer_s" -> secs(probe, "gnn.infer"),
      "metrics.quality_s" -> secs(probe, "metrics.quality"),
      "metrics.jobs" -> tally(probe, "metrics.quality").jobs.toDouble,
      "trace.overhead_s" -> overhead,
    )
    val all = pass ++ derived ++ counts ++ sizes
    Metrics.perLayer.map(m => m.name -> all.getOrElse(m.name, 0.0))
  }
}

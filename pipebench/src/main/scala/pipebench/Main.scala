package pipebench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import pipebench.Json.Obj

/** Runs one workload and prints its metrics.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--git-sha <sha>]
  * }}}
  *
  * An untraced run (``--trace 0``) sets up [[Main.SetUps]] times, then runs
  * timed passes until ``--seconds`` of pass time have elapsed, and reports
  * the end-to-end metrics. The first pass is timed like the rest: a
  * pipeline job pays it in every fresh JVM. A traced run (``--trace 1``)
  * runs one untimed warm-up pass, alternates traced and untraced passes for
  * the same time, then probes the sub-layers once, and reports the
  * per-layer metrics.
  * The last line of standard output is the result as one JSON object; the
  * full record goes to ``<out>/<workload>-seed<n>-trace<t>.json``.
  */
object Main {

  /** Set-ups per untraced run; ``setup_s`` is their median. */
  val SetUps = 3

  final case class Args(workload: String, seed: Int, seconds: Int, trace: Boolean,
                        out: Option[String], gitSha: String)

  def parse(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case bad => throw new IllegalArgumentException(s"expected --key value pairs, got ${bad.mkString(" ")}")
    }.toMap
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.getOrElse("seed", "0").toInt,
      seconds = kv.getOrElse("seconds", "10").toInt,
      trace = trace == "1",
      out = kv.get("out"),
      gitSha = kv.getOrElse("git-sha", "unknown"),
    )
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq)
    val workload = Workloads.byName(args.workload)
    val spark = Settings.session()
    val code =
      try {
        val run = new Run(args, workload, spark)
        val result = if (args.trace) run.traced() else run.untraced()
        report(args, workload, run, result)
        0
      } catch {
        case NonFatal(e) =>
          e.printStackTrace()
          1
      }
    // Everything this process started lives in it; halting skips Spark's
    // seconds-long orderly shutdown, and run.py removes its scratch dirs.
    System.out.flush()
    System.err.flush()
    Runtime.getRuntime.halt(code)
  }

  /** A reported metric value with the number of samples behind it. */
  final case class Value(metric: Metric, value: Double, samples: Seq[Double])

  private def median(m: Metric, samples: Seq[Double]): Value =
    Value(m, if (samples.isEmpty) Double.NaN else Stats.median(samples), samples)

  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** A pass that succeeded and the wall seconds of its public calls. */
  final case class Timed(wall: Double, pass: Pass)

  private val started = System.nanoTime()

  /** Progress on standard error, stamped with seconds since start. */
  def log(msg: String): Unit = System.err.println(f"[pipebench ${since(started)}%7.2f s] $msg")

  /** One run's passes: timing, the repeat and oracle checks, and failures. */
  final class Run(args: Args, workload: Workload, spark: SparkSession) {
    var attempted = 0
    var failed = 0
    var warmUpFailed = false
    var checked = false
    var score: Option[Double] = None
    val errors: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
    val spans: mutable.ArrayBuffer[Obj] = mutable.ArrayBuffer.empty
    private var reference: Option[Seq[Double]] = None
    private var busy = 0.0
    private var peakMb = 0.0

    /** Collect garbage first: Spark lists a checkpointed RDD as stored until
      * the RDD object is collected, so without it the footprint would count
      * earlier passes' released data by the whim of the collector.
      */
    private def sampleStorage(): Unit = {
      System.gc()
      peakMb = math.max(peakMb, Settings.cachedMb(spark))
    }

    /** Time ``body`` from outside, then check its output outside the timed
      * region: the fingerprint against the run's first pass, and (once per
      * run) the KG' against DuckDB. A pass that throws or fails a check is
      * released and counted as failed; the run goes on.
      */
    private def attempt(body: => Pass, timed: Boolean): Option[Timed] = {
      if (timed) attempted += 1
      System.gc() // start every pass from a collected heap
      val t0 = System.nanoTime()
      try {
        val pass = try body finally busy += since(t0)
        val secs = since(t0)
        try {
          sampleStorage()
          reference match {
            case None => reference = Some(pass.fingerprint); score = Some(pass.score)
            case Some(ref) if ref != pass.fingerprint =>
              throw new IllegalStateException(s"pass scores ${pass.fingerprint} differ from the first pass's $ref")
            case _ => ()
          }
          log(f"pass took $secs%.3f s (${if (timed) "timed" else "warm-up"})")
          if (!checked) { pass.check(); checked = true; log("oracle check passed") }
          Some(Timed(secs, pass))
        } catch {
          case NonFatal(e) => pass.release(); throw e
        }
      } catch {
        case NonFatal(e) =>
          if (timed) failed += 1 else warmUpFailed = true
          errors += e.toString
          System.err.println(s"pass failed: $e")
          None
      }
    }

    private def more(done: Int): Boolean = done == 0 || busy < args.seconds

    def untraced(): Seq[Value] = {
      val tr = new Tracer(spark.sparkContext, traced = false)
      val setups = mutable.ArrayBuffer.empty[Double]
      var prepared: Prepared = null
      for (_ <- 0 until SetUps) {
        if (prepared != null) prepared.release()
        val t0 = System.nanoTime()
        prepared = workload.setUp(spark, args.seed, tr)
        setups += since(t0)
        log(f"set-up took ${setups.last}%.3f s")
      }
      val times = mutable.ArrayBuffer.empty[Timed]
      while (more(attempted)) {
        attempt(prepared.pass(tr), timed = true).foreach { t =>
          times += t
          t.pass.release()
        }
      }
      prepared.release()
      val m = Metrics.endToEnd.map(x => x.name -> x).toMap
      Seq(
        median(m("setup_s"), setups.toSeq),
        median(m("pipeline_s"), times.map(_.wall).toSeq),
        Value(m("peak_cached_mb"), peakMb, Seq(peakMb)),
      )
    }

    def traced(): Seq[Value] = {
      val sc = spark.sparkContext
      val off = new Tracer(sc, traced = false)
      val tr = new Tracer(sc, traced = true, () => Settings.cachedMb(spark))
      // The first set-up of a JVM is the slowest; trace the second.
      workload.setUp(spark, args.seed, off).release()
      val prepared = tr.recording(workload.setUp(spark, args.seed, tr))
      attempt(prepared.pass(off), timed = false).foreach(_.pass.release())
      busy = 0.0

      val untracedTimes = mutable.ArrayBuffer.empty[Double]
      val tracedRuns = mutable.ArrayBuffer.empty[(String, Double)]
      var last: Option[Pass] = None
      var k = 0
      while (more(k)) {
        // Alternate which kind goes first, as later passes run on a warmer JVM.
        def untracedPass(): Unit =
          attempt(prepared.pass(off), timed = true).foreach { t =>
            untracedTimes += t.wall
            t.pass.release()
          }
        def tracedPass(): Unit = {
          val run = s"pass$k"
          tr.startRun(run)
          attempt(tr.recording(tr.span("pass")(prepared.pass(tr))), timed = true).foreach { t =>
            tracedRuns += run -> t.wall
            last.foreach(_.release())
            last = Some(t.pass)
          }
        }
        if (k % 2 == 0) { tracedPass(); untracedPass() } else { untracedPass(); tracedPass() }
        k += 1
      }
      require(tracedRuns.nonEmpty && untracedTimes.nonEmpty, "no traced or untraced pass succeeded")
      tr.startRun("probe")
      val counts = tr.recording(tr.span("probe")(last.get.probe(tr)))
      last.foreach(_.release())

      val overhead = Stats.median(tracedRuns.map(_._2).toSeq) - Stats.median(untracedTimes.toSeq)
      val values = Layers.metrics(tr, tracedRuns.toSeq, counts, prepared.sizes, overhead).toMap
      recordSpans(tr)
      prepared.release()
      Metrics.perLayer.map(m => Value(m, values(m.name), Seq(values(m.name))))
    }

    private def recordSpans(tr: Tracer): Unit = {
      val all = tr.spans
      val origin = all.map(_.startNs).foldLeft(Long.MaxValue)(math.min)
      for (s <- all.sortBy(_.startNs)) {
        val t = tr.tally(s)
        spans += Obj(
          "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "run" -> s.runId,
          "start_s" -> (s.startNs - origin) / 1e9, "end_s" -> (s.endNs - origin) / 1e9,
          "seconds" -> s.seconds, "self_s" -> Span.selfSeconds(s, all), "job_s" -> t.jobSeconds,
          "cached_mb_at_end" -> s.cachedMbAtEnd,
          "jobs" -> t.jobs, "stages" -> t.stages, "tasks" -> t.tasks, "tasks_failed" -> t.failedTasks,
          "shuffle_read_mb" -> t.shuffleReadBytes / 1e6, "shuffle_write_mb" -> t.shuffleWriteBytes / 1e6,
          "spill_mb" -> t.spillBytes / 1e6, "max_task_over_median" -> t.skew,
        )
      }
      val stray = tr.unattributed
      spans += Obj("id" -> Tracer.NoSpan, "name" -> "unattributed", "jobs" -> stray.jobs, "tasks" -> stray.tasks)
    }

    def correct(values: Seq[Value]): Boolean =
      checked && failed == 0 && !warmUpFailed && values.forall(v => !v.value.isNaN)
  }

  private def summary(v: Value): Obj = {
    val q = if (v.samples.length >= 2) Some(Stats.quartiles(v.samples)) else None
    Obj(
      "value" -> v.value, "unit" -> v.metric.unit, "n" -> v.samples.length,
      "q1" -> q.map(_._1), "median" -> (if (v.samples.isEmpty) None else Some(Stats.median(v.samples))),
      "q3" -> q.map(_._3),
      "tail" -> Stats.tail(v.samples).map { case (p, x) => Obj("percentile" -> p, "value" -> x) },
      "samples" -> v.samples,
    )
  }

  private def report(args: Args, workload: Workload, run: Run, values: Seq[Value]): Unit = {
    val correct = run.correct(values)
    val failedShare = if (run.attempted == 0) 0.0 else run.failed.toDouble / run.attempted
    println(s"# ${workload.name} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      s"scale=${Settings.scale} cores=${Settings.cores} batches=${Settings.batches} bs=${Settings.bs}")
    for (v <- values) {
      val tail = Stats.tail(v.samples).map { case (p, x) => f"  p$p%.1f=$x%.4f" }.getOrElse("")
      println(f"${v.metric.name}%-28s ${v.value}%14.4f ${v.metric.unit}%-6s n=${v.samples.length}$tail")
    }
    println(f"${"score"}%-28s ${run.score.getOrElse(Double.NaN)}%14.4f %%      (${workload.score})")
    println(f"${"failed_pass_share"}%-28s $failedShare%14.4f ratio  (${run.failed} of ${run.attempted} passes)")
    println(s"correct=$correct oracle_checked=${run.checked}")

    args.out.foreach { dir =>
      val record = Obj(
        "workload" -> workload.name, "seed" -> args.seed, "trace" -> args.trace,
        "git_sha" -> args.gitSha, "scale" -> Settings.scale, "cores" -> Settings.cores,
        "bs" -> Settings.bs, "batches" -> Settings.batches, "seconds" -> args.seconds,
        "spark" -> Obj(("spark.master" -> s"local[${Settings.cores}]") +: Settings.spark: _*),
        "correct" -> correct, "attempted" -> run.attempted, "failed" -> run.failed,
        "failed_pass_share" -> failedShare, "oracle_checked" -> run.checked,
        "score" -> Obj("value" -> run.score, "meaning" -> workload.score),
        "errors" -> run.errors.toSeq,
        "metrics" -> Obj(values.map(v => v.metric.name -> summary(v)): _*),
        "spans" -> run.spans.toSeq,
      )
      val path = Paths.get(dir, s"${workload.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
      Files.createDirectories(path.getParent)
      Files.write(path, (Json.render(record) + "\n").getBytes(StandardCharsets.UTF_8))
    }

    println(Json.render(Obj(
      "correct" -> correct, "attempted" -> run.attempted, "failed" -> run.failed,
      "metrics" -> Obj(values.map(v => v.metric.name -> Obj("value" -> v.value, "unit" -> v.metric.unit)): _*),
    )))
  }
}

package pipebench

import scala.collection.mutable

import org.apache.spark.{ListenerBusAccess, SparkContext, Success}
import org.apache.spark.scheduler._

/** One timed region of a run: a call into a layer of the program, made
  * from the benchmark's own code. ``parent`` is the span open around it;
  * spans of one pass share ``runId``.
  */
final case class Span(id: Int, name: String, parent: Option[Int], runId: String,
                      startNs: Long, endNs: Long, cachedMbAtEnd: Double = 0.0) {
  def seconds: Double = (endNs - startNs) / 1e9
}

object Span {

  /** Self time of ``span``: its duration minus the part of that interval
    * covered by its direct children (overlapping children count once).
    */
  def selfSeconds(span: Span, all: Seq[Span]): Double = {
    val kids = all
      .filter(_.parent.contains(span.id))
      .map(c => (math.max(c.startNs, span.startNs), math.min(c.endNs, span.endNs)))
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var reach = span.startNs
    for ((s, e) <- kids) {
      val from = math.max(s, reach)
      if (e > from) { covered += e - from; reach = e }
    }
    (span.endNs - span.startNs - covered) / 1e9
  }

  /** Ids of ``root`` and every span below it. */
  def subtree(root: Int, all: Seq[Span]): Set[Int] = {
    val kids = all.groupBy(_.parent)
    def walk(id: Int): Set[Int] =
      kids.getOrElse(Some(id), Nil).map(c => walk(c.id)).foldLeft(Set(id))(_ ++ _)
    walk(root)
  }
}

/** Spark work attributed to one span. */
final class Tally {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var failedTasks = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var spillBytes = 0L
  val taskMillis: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  /** (submitted, completed) wall-clock milliseconds of each finished job. */
  val jobMillis: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty

  def add(o: Tally): Tally = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; failedTasks += o.failedTasks
    shuffleReadBytes += o.shuffleReadBytes; shuffleWriteBytes += o.shuffleWriteBytes
    spillBytes += o.spillBytes; taskMillis ++= o.taskMillis; jobMillis ++= o.jobMillis
    this
  }

  /** Wall time during which at least one of the jobs was running. */
  def jobSeconds: Double = {
    var covered = 0L
    var reach = Long.MinValue
    for ((s, e) <- jobMillis.sortBy(_._1)) {
      val from = math.max(s, reach)
      if (e > from) { covered += e - from; reach = e }
    }
    covered / 1e3
  }

  /** Longest task over the median task; 0 without tasks. */
  def skew: Double =
    if (taskMillis.isEmpty) 0.0
    else taskMillis.max.toDouble / math.max(1.0, Stats.median(taskMillis.map(_.toDouble).toSeq))
}

/** Listener that charges jobs, stages and tasks to the span whose id the
  * submitting thread carried as a Spark local property. Local properties are
  * inherited by threads created inside a span, so jobs submitted from a
  * worker pool (as ``Endpoint.paginated`` does) are charged to the span that
  * created the pool. Work without a span is charged to [[Tracer.NoSpan]].
  */
final class SpanListener extends SparkListener {
  private val tallies = mutable.Map.empty[Int, Tally]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val jobStart = mutable.Map.empty[Int, (Int, Long)]

  private def tally(span: Int): Tally = tallies.getOrElseUpdate(span, new Tally)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties)
      .flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt)
      .getOrElse(Tracer.NoSpan)
    tally(span).jobs += 1
    e.stageIds.foreach(stageSpan(_) = span)
    jobStart(e.jobId) = (span, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (span, start) => tally(span).jobMillis += ((start, e.time)) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    tally(stageSpan.getOrElse(e.stageInfo.stageId, Tracer.NoSpan)).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = tally(stageSpan.getOrElse(e.stageId, Tracer.NoSpan))
    t.tasks += 1
    if (e.reason != Success) t.failedTasks += 1
    Option(e.taskInfo).foreach(i => t.taskMillis += i.duration)
    Option(e.taskMetrics).foreach { m =>
      t.shuffleReadBytes += m.shuffleReadMetrics.remoteBytesRead + m.shuffleReadMetrics.localBytesRead
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Copy of the tally charged to exactly ``span``. */
  def of(span: Int): Tally = synchronized(new Tally().add(tallies.getOrElse(span, new Tally)))
}

/** Records spans in memory. An untraced tracer runs the bodies and records
  * nothing, so one code path serves both kinds of run; a traced tracer also
  * keeps a [[SpanListener]] on the context while [[recording]], and samples
  * ``storage`` (cached MB) as each span ends.
  */
final class Tracer(sc: SparkContext, val traced: Boolean,
                   storage: () => Double = () => 0.0,
                   clock: () => Long = () => System.nanoTime()) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[(Int, String, Long)]
  private var nextId = 0
  private var run = "setup"
  private val listener = new SpanListener

  def spans: Seq[Span] = done.toSeq

  /** Spans opened from now on belong to run ``id``. */
  def startRun(id: String): Unit = run = id

  /** Run ``body`` with the listener attached (traced tracers only). */
  def recording[T](body: => T): T =
    if (!traced) body
    else {
      sc.addSparkListener(listener)
      try body
      finally {
        ListenerBusAccess.drain(sc)
        sc.removeSparkListener(listener)
      }
    }

  /** Time ``body`` as a span named ``name`` under the innermost open span. */
  def span[T](name: String)(body: => T): T =
    if (!traced) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.map(_._1)
      open.push((id, name, clock()))
      sc.setLocalProperty(Tracer.SpanKey, id.toString)
      try body
      finally {
        val (_, _, start) = open.pop()
        done += Span(id, name, parent, run, start, clock(), storage())
        sc.setLocalProperty(Tracer.SpanKey, parent.map(_.toString).orNull)
      }
    }

  /** Tally charged to ``span`` and every span below it. */
  def tally(span: Span): Tally = {
    ListenerBusAccess.drain(sc)
    Span.subtree(span.id, spans).foldLeft(new Tally)((acc, id) => acc.add(listener.of(id)))
  }

  /** Tally of work recorded outside every span. */
  def unattributed: Tally = {
    ListenerBusAccess.drain(sc)
    listener.of(Tracer.NoSpan)
  }
}

object Tracer {
  val SpanKey = "pipebench.span"
  val NoSpan: Int = -1
}

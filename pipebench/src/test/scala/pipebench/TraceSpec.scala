package pipebench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.core.GraphPattern
import repro.rdf.{Endpoint, TripleStore}
import repro.synth.KGBench

class TraceSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .config("spark.sql.shuffle.partitions", "4")
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val sec = 1000000000L

  private def span(id: Int, parent: Option[Int], start: Long, end: Long) =
    Span(id, s"s$id", parent, "r", start * sec, end * sec)

  test("self time subtracts the children's union, clipped to the parent") {
    val parent = span(0, None, 0, 10)
    val all = Seq(parent, span(1, Some(0), 1, 4), span(2, Some(0), 3, 6), span(3, Some(0), 8, 12),
      span(4, Some(1), 1, 2)) // a grandchild does not count twice
    assert(Span.selfSeconds(parent, all) == 3.0)
    assert(Span.selfSeconds(all(1), all) == 2.0)
    assert(Span.subtree(0, all) == Set(0, 1, 2, 3, 4))
    assert(Span.subtree(1, all) == Set(1, 4))
  }

  test("nested spans record parents, run ids and self time") {
    var now = 0L
    val tr = new Tracer(spark.sparkContext, traced = true, clock = () => now)
    tr.startRun("pass0")
    tr.span("a") {
      now += 1 * sec
      tr.span("b")(now += 2 * sec)
      now += 1 * sec
      tr.span("c")(tr.span("d")(now += 3 * sec))
      now += 1 * sec
    }
    val byName = tr.spans.map(s => s.name -> s).toMap
    assert(byName("a").parent.isEmpty)
    assert(byName("b").parent.contains(byName("a").id))
    assert(byName("d").parent.contains(byName("c").id))
    assert(tr.spans.forall(_.runId == "pass0"))
    assert(byName("a").seconds == 8.0)
    assert(Span.selfSeconds(byName("a"), tr.spans) == 3.0)
    assert(Span.selfSeconds(byName("c"), tr.spans) == 0.0)
  }

  test("an untraced tracer runs the body and records nothing") {
    val tr = new Tracer(spark.sparkContext, traced = false)
    assert(tr.span("x")(tr.recording(41 + 1)) == 42)
    assert(tr.spans.isEmpty)
    assert(spark.sparkContext.getLocalProperty(Tracer.SpanKey) == null)
  }

  test("job time is the union of the jobs' intervals") {
    val t = new Tally
    t.jobMillis ++= Seq((0L, 1000L), (500L, 1500L), (3000L, 3250L))
    assert(t.jobSeconds == 1.75)
  }

  test("listener counts go to the enclosing span, including Endpoint worker threads") {
    val kg = KGBench.generate(spark, KGBench.DBLP, 0.02).cached()
    val store = new TripleStore(kg).warm()
    val endpoint = new Endpoint(store, parallelism = 3)
    val q = GraphPattern(1, 1).queries("Publication").head
    val tr = new Tracer(spark.sparkContext, traced = true)
    var pages = 0
    tr.recording {
      spark.range(5).count() // outside every span
      tr.span("outer") {
        tr.span("rdf.paginated") { pages = endpoint.paginated(q, 100)._2 }
        spark.range(10).count()
      }
    }
    val outer = tr.spans.find(_.name == "outer").get
    val inner = tr.spans.find(_.name == "rdf.paginated").get
    assert(pages >= 3)
    // one job per page runs on the endpoint's pool, plus the count
    assert(tr.tally(inner).jobs >= pages + 1)
    assert(tr.tally(inner).tasks > 0)
    // the outer span's own count shows up in its total, not in the inner one's
    assert(tr.tally(outer).jobs > tr.tally(inner).jobs)
    // the count before any span is charged to no span
    assert(tr.unattributed.jobs >= 1)
    assert(spark.sparkContext.getLocalProperty(Tracer.SpanKey) == null)
    store.close(); kg.uncache()
  }
}

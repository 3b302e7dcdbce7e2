package pipebench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("quartiles match Python's statistics.quantiles(xs, n=4)") {
    // reference values printed by CPython 3.11
    assert(Stats.quartiles(Seq(1.0, 2.0)) == ((0.75, 1.5, 2.25)))
    assert(Stats.quartiles(Seq(3.0, 1.0, 2.0)) == ((1.0, 2.0, 3.0)))
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(5.5, 1.25, 9.0, 3.0, 7.75)) == ((2.125, 5.5, 8.375)))
  }

  test("quartiles need two samples") {
    intercept[IllegalArgumentException](Stats.quartiles(Seq(1.0)))
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    assert(Stats.tail((1 to 19).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 20).map(_.toDouble)).contains((50.0, 10.0)))
    assert(Stats.tail((1 to 39).map(_.toDouble)).contains((50.0, 20.0)))
    assert(Stats.tail((1 to 40).map(_.toDouble)).contains((75.0, 30.0)))
    assert(Stats.tail((1 to 100).map(_.toDouble)).contains((90.0, 90.0)))
    assert(Stats.tail((1 to 1000).map(_.toDouble)).contains((99.0, 990.0)))
    assert(Stats.tail(Seq.fill(25)(1.0), beyond = 30).isEmpty)
  }

  test("metric names use letters, digits, '_', '.' and '-' only") {
    for (m <- Metrics.endToEnd ++ Metrics.perLayer) assert(Metrics.validName(m.name), m.name)
    val names = (Metrics.endToEnd ++ Metrics.perLayer).map(_.name)
    assert(names.distinct == names)
    for (bad <- Seq("", ".jobs", "_x", "rdf jobs", "rdf/jobs", "accuracy%", "a" * 65))
      assert(!Metrics.validName(bad), bad)
    assert(Metrics.validName("a" * 64))
    intercept[IllegalArgumentException](Metric("bad name", "s"))
  }

  test("JSON rendering escapes strings and keeps field order") {
    val s = Json.render(Json.Obj("b" -> 1, "a" -> Seq(1.5, Double.NaN), "q" -> "x\"y\n", "o" -> None))
    assert(s == """{"b": 1, "a": [1.5, null], "q": "x\"y\n", "o": null}""")
  }
}

class BenchmarkFileSpec extends AnyFunSuite {

  test("BENCHMARK.json lists exactly the metrics the runner reports") {
    import scala.jdk.CollectionConverters._
    val file = new java.io.File(System.getProperty("user.dir")).getParentFile.toPath.resolve("BENCHMARK.json")
    val root = new com.fasterxml.jackson.databind.ObjectMapper().readTree(file.toFile)
    def listed(key: String): Seq[(String, String, String)] =
      root.get(key).elements().asScala.toSeq.map(n => (n.get("name").asText, n.get("unit").asText, n.get("better").asText))
    assert(listed("end_to_end") == Metrics.endToEnd.map(m => (m.name, m.unit, m.better)))
    assert(listed("per_layer") == Metrics.perLayer.map(m => (m.name, m.unit, m.better)))
    assert(root.get("workloads").elements().asScala.map(_.get("name").asText).toSeq == Workloads.all.map(_.name))
  }
}

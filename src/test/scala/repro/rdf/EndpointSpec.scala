package repro.rdf

import repro.{SparkSpec, TestKGs}

class EndpointSpec extends SparkSpec {

  private lazy val kg = TestKGs.yago3
  private lazy val store = new TripleStore(kg).warm()
  private lazy val endpoint = new Endpoint(store, parallelism = 4)

  private val q = SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s a <type:Person> . ?s ?p ?o }")

  test("count matches distinct select cardinality") {
    assert(endpoint.count(q) == endpoint.select(q).distinct().count())
  }

  test("pagination is lossless and duplicate-free") {
    val direct = endpoint.select(q).distinct()
    val (paged, nb) = endpoint.paginated(q, bs = 97)
    assert(nb == math.ceil(direct.count() / 97.0).toInt)
    assert(paged.count() == direct.count())
    assert(paged.exceptAll(direct).count() == 0)
    assert(direct.exceptAll(paged).count() == 0)
  }

  test("batch size larger than the result gives one batch") {
    val (paged, nb) = endpoint.paginated(q, bs = 10000000L)
    assert(nb == 1)
    assert(paged.count() == endpoint.count(q))
  }

  test("pagination result is independent of batch size") {
    val (a, _) = endpoint.paginated(q, bs = 61)
    val (b, _) = endpoint.paginated(q, bs = 500)
    assert(a.exceptAll(b).count() == 0)
    assert(b.exceptAll(a).count() == 0)
  }

  test("pagination result is independent of worker parallelism") {
    val e1 = new Endpoint(store, parallelism = 1)
    val (a, _) = e1.paginated(q, bs = 200)
    val (b, _) = endpoint.paginated(q, bs = 200)
    assert(a.exceptAll(b).count() == 0)
    assert(b.exceptAll(a).count() == 0)
  }

  test("empty results paginate to an empty frame with the right columns") {
    // Film nodes have no outgoing edges in YAGO3-lite core (actedIn points *to* Film)
    val qe = SparqlParser.parse("SELECT ?s ?p ?o WHERE { ?s a <type:Film> . ?s ?p ?o }")
    val (paged, nb) = endpoint.paginated(qe, bs = 10)
    assert(paged.columns.toSeq == Seq("s", "p", "o"))
    assert(nb == 1)
    assert(paged.count() == 0)
  }

  test("union queries paginate losslessly too") {
    val qu = SparqlParser.parse(
      "SELECT ?s ?p ?o WHERE { { ?s a <type:Person> . ?s ?p ?o } UNION { ?s ?p ?o . ?o a <type:Person> } }")
    val (paged, _) = endpoint.paginated(qu, bs = 131)
    assert(paged.count() == endpoint.count(qu))
  }

  test("page bounds are Long row ranges, also beyond Int.MaxValue rows") {
    val total = 5L * Int.MaxValue + 3
    val bs = 2L * Int.MaxValue
    val pages = Endpoint.pageBounds(total, bs)
    assert(pages == Seq((0L, bs), (bs, 2 * bs), (2 * bs, total)))
    assert(Endpoint.pageBounds(0, 10) == Seq((0L, 0L)))
    assert(Endpoint.pageBounds(20, 10) == Seq((0L, 10L), (10L, 20L)))
    intercept[IllegalArgumentException](Endpoint.pageBounds(total, 1))
    intercept[IllegalArgumentException](Endpoint.pageBounds(10, 0))
  }

  test("a page is sliced from the partitions its row range covers") {
    val big = 3L * Int.MaxValue
    val sizes = IndexedSeq(big, 0L, 10L, big)
    assert(Endpoint.slices(sizes, 0, 5) == Seq((0, 0L, 5L)))
    assert(Endpoint.slices(sizes, big - 2, big + 4) == Seq((0, big - 2, big), (2, 0L, 4L)))
    assert(Endpoint.slices(sizes, big + 10, 2 * big + 10) == Seq((3, 0L, big)))
    assert(Endpoint.slices(sizes, 0, 0).isEmpty)
  }
}

package repro.rdf

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestKGs}

class TripleStoreSpec extends SparkSpec {

  private lazy val store = new TripleStore(TestKGs.yago3)
  private lazy val schema = TestKGs.yago3.schema

  test("index views hold the same triples as the base table") {
    val triples = store.kg.triples
    for (view <- Seq(store.byS, store.byO)) {
      assert(view.exceptAll(triples).count() == 0)
      assert(triples.exceptAll(view).count() == 0)
    }
  }

  test("type triples cover every node exactly once with class-node objects") {
    val tt = store.typeTriples
    assert(tt.count() == TestKGs.yago3.nodeTypes.count())
    val badP = tt.filter(col("p") =!= schema.typeP).count()
    assert(badP == 0)
    val badO = tt.filter(col("o") < schema.totalNodes).count()
    assert(badO == 0)
  }

  test("resolve maps each IRI family to the right id space") {
    assert(store.resolve(IRI("rel:livesIn")) == schema.edgeType("livesIn").id.toLong)
    assert(store.resolve(IRI("rdf:type")) == schema.typeP.toLong)
    assert(store.resolve(IRI("type:Person")) == schema.classNode(schema.nodeType("Person").id))
    assert(store.resolve(IRI("node:42")) == 42L)
  }

  test("resolve rejects unknown names and families") {
    intercept[NoSuchElementException](store.resolve(IRI("rel:bogus")))
    intercept[NoSuchElementException](store.resolve(IRI("type:Bogus")))
    intercept[IllegalArgumentException](store.resolve(IRI("urn:whatever")))
  }

  test("warm materialises and close releases without breaking reads") {
    // a KG of its own checkpoints, so no other store's cached views share
    // the plans (Spark caches an identical plan once)
    val kg = TestKGs.yago3.cached()
    def stored = spark.sparkContext.getRDDStorageInfo.map(_.id).toSet
    val before = stored
    val s2 = new TripleStore(kg).warm()
    val views = stored -- before
    assert(views.size == 3, s"warm cached ${views.size} RDDs")
    s2.close()
    assert((stored intersect views).isEmpty)
    assert(kg.triples.count() > 0)
    kg.uncache()
  }
}

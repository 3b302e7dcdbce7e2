package repro.rdf

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Compiles a SPARQL-subset [[Query]] to Catalyst joins over a
  * [[TripleStore]]'s index views.
  *
  * View choice per triple pattern mirrors an RDF engine's index pick. A
  * bound predicate reads [[TripleStore.byP]]; ``rdf:type`` reads the virtual
  * [[TripleStore.typeTriples]]. A variable-predicate pattern reads the view
  * keyed on the variable it is joined on: [[TripleStore.byS]] when that is
  * its subject, [[TripleStore.byO]] when it is its object. Both are
  * co-partitioned with the type triples, so a type pattern joined with a
  * variable-predicate pattern — every hop-1 KG-TOSA subquery — needs no
  * shuffle. A pattern not joined on its subject or object falls back to a
  * bound position's view, else to the raw triples.
  *
  * Variable-predicate patterns match only data triples (not the virtual
  * type triples); node types travel in the node-type table instead.
  */
final class BGPExecutor(store: TripleStore) {

  /** Execute a query; result columns are the projected variable names, all
    * LongType. Bag semantics (no implicit DISTINCT), as in SPARQL SELECT.
    */
  def execute(q: Query): DataFrame = {
    val bound = group(q.where)
    val projected = q.projected.map(col)
    var df = bound.select(projected: _*)
    if (q.limit.isDefined || q.offset.isDefined) {
      // LIMIT/OFFSET need a total order to be meaningful; order by all
      // projected columns (deterministic given set semantics upstream).
      df = df.orderBy(q.projected.map(col): _*)
      q.offset.foreach(n => df = df.offset(rowCount("OFFSET", n)))
      q.limit.foreach(n => df = df.limit(rowCount("LIMIT", n)))
    }
    df
  }

  /** Spark's ``offset``/``limit`` take an ``Int``; larger values are
    * rejected rather than wrapped.
    */
  private def rowCount(clause: String, n: Long): Int = {
    require(n >= 0 && n <= Int.MaxValue, s"$clause $n is outside 0..${Int.MaxValue}")
    n.toInt
  }

  private def group(g: GroupPattern): DataFrame = g match {
    case BGP(patterns) =>
      // a pattern is joined on the variables it shares with the patterns
      // before it; the first one on those it shares with the second
      val joinVars = patterns.indices.map { i =>
        val other = if (i == 0) patterns.slice(1, 2) else patterns.take(i)
        patterns(i).vars.intersect(other.flatMap(_.vars))
      }
      patterns.zip(joinVars).map { case (tp, on) => scan(tp, on) }.reduce { (acc, nxt) =>
        val common = acc.columns.intersect(nxt.columns).toSeq
        if (common.nonEmpty) acc.join(nxt, common) else acc.crossJoin(nxt)
      }
    case Union(branches) =>
      val dfs = branches.map(group)
      val allVars = g.vars
      // SPARQL UNION aligns by variable name; missing vars would be unbound
      // (null) — our extraction queries always use identical var sets.
      dfs.map(df => df.select(allVars.map(v => colOrNull(df, v)): _*)).reduce(_ union _)
  }

  private def colOrNull(df: DataFrame, v: String): Column =
    if (df.columns.contains(v)) col(v) else lit(null).cast("long").as(v)

  /** One pattern: pick the index view, push constant filters, rename the
    * variable positions; result has one LongType column per variable.
    *
    * @param joinVars the variables this pattern is joined on
    */
  private def scan(tp: TriplePattern, joinVars: Seq[String]): DataFrame = {
    def joinedOn(t: Term) = t match { case Var(n) => joinVars.contains(n); case _ => false }
    val base = tp.p match {
      case iri: IRI if iri.name == "rdf:type" => store.typeTriples
      case iri: IRI                           => store.byP.filter(col("p") === store.resolve(iri).toInt)
      case _: Var if joinedOn(tp.s)           => store.byS
      case _: Var if joinedOn(tp.o)           => store.byO
      case _: Var =>
        (tp.s, tp.o) match {
          case (_: IRI, _) => store.byS
          case (_, _: IRI) => store.byO
          case _           => store.triples
        }
    }
    var df = base
    // constant filters for subject/object
    tp.s match { case iri: IRI => df = df.filter(col("s") === store.resolve(iri)); case _ => () }
    tp.o match { case iri: IRI => df = df.filter(col("o") === store.resolve(iri)); case _ => () }
    // repeated variable inside one pattern → equality filter
    (tp.s, tp.o) match {
      case (Var(a), Var(b)) if a == b => df = df.filter(col("s") === col("o"))
      case _                          => ()
    }
    val named = Seq(
      tp.s match { case Var(n) => Some(n -> col("s")); case _ => None },
      tp.p match { case Var(n) => Some(n -> col("p")); case _ => None },
      tp.o match { case Var(n) => Some(n -> col("o")); case _ => None },
    ).flatten
    require(named.nonEmpty, s"pattern $tp binds no variables")
    // a var repeated inside one pattern projects once (first occurrence)
    val distinctCols = named
      .groupBy(_._1).view.mapValues(_.head._2).toSeq
      .map { case (n, c) => c.cast("long").as(n) }
    df.select(distinctCols: _*)
  }
}

package repro.rdf

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Compiles a SPARQL-subset [[Query]] to Catalyst joins over a
  * [[TripleStore]]'s index views.
  *
  * View choice per triple pattern mirrors an RDF engine's index pick, made
  * by the pattern's join key. ``rdf:type`` reads the virtual
  * [[TripleStore.typeTriples]]. Every other pattern reads
  * [[TripleStore.byS]], except that it reads [[TripleStore.byO]] when it is
  * joined on its object and not its subject, or is joined on neither and
  * binds only its object. Both views are co-partitioned with the type
  * triples, so a type pattern joined with a variable-predicate pattern —
  * every hop-1 KG-TOSA subquery — needs no shuffle. A constant subject,
  * predicate or object is an equality filter on the chosen view.
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
    // joined on the object and not the subject, or on neither with only
    // the object a variable
    val keyedOnObject = !joinedOn(tp.s) &&
      (joinedOn(tp.o) || (tp.s.isInstanceOf[IRI] && tp.o.isInstanceOf[Var]))
    var df = tp.p match {
      case IRI("rdf:type")    => store.typeTriples
      case _ if keyedOnObject => store.byO
      case _                  => store.byS
    }
    // constant filters
    for ((t, c) <- Seq(tp.s -> "s", tp.p -> "p", tp.o -> "o")) t match {
      case iri: IRI => df = df.filter(col(c) === store.resolve(iri))
      case _        => ()
    }
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

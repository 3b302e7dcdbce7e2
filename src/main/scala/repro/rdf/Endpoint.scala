package repro.rdf

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.rdd.PartitionPruningRDD
import org.apache.spark.sql.DataFrame

/** One subquery's paginated result.
  *
  * @param rows         the union of the fetched pages, one LongType column
  *                     per projected variable, duplicate-free
  * @param batches      the number of LIMIT/OFFSET pages fetched
  * @param materialised the subquery's set-semantics result the pages are cut
  *                     from; ``rows`` reads it, so free it (``KG.release``)
  *                     only once ``rows`` has been consumed
  */
final case class Paged(rows: DataFrame, batches: Int, materialised: DataFrame)

/** SPARQL-endpoint simulation implementing Algorithm 3's execution shape:
  * size the result, split it into LIMIT/OFFSET batches of ``bs`` rows, and
  * fetch the batches with ``parallelism`` request-handler workers.
  *
  * The engine runs each subquery once: its set-semantics result (the
  * ``distinct`` the paper applies after fetching) is materialised as a
  * local checkpoint by the same job that counts its rows per partition.
  * Those sizes alone reach the driver; they fix the batch count and each
  * page's ``Long`` row range. A worker fetches its page as a slice of the
  * materialisation — a job over only the partitions the range touches —
  * and the pages come back as a union of DataFrames, so no result row
  * passes through the driver. Pagination exists in the paper because
  * Virtuoso caps result sizes; what carries over is that each subquery
  * costs one index-backed execution whatever the page count.
  */
final class Endpoint(val store: TripleStore, parallelism: Int = 8) {
  private val executor = new BGPExecutor(store)

  /** Execute a query directly (no pagination). */
  def select(q: Query): DataFrame = executor.execute(q)

  /** Result cardinality under set semantics (``getGraphSize`` in Alg. 3). */
  def count(q: Query): Long =
    executor.execute(q.copy(limit = None, offset = None)).distinct().count()

  /** Paginated parallel execution per Algorithm 3. Returns the deduplicated
    * result as a DataFrame of LongType columns named by the projected vars,
    * plus the number of batches executed.
    */
  def paginated(q: Query, bs: Long): (DataFrame, Int) = {
    val p = fetch(q, bs)
    (p.rows, p.batches)
  }

  /** [[paginated]], keeping the materialisation so the caller can free it. */
  def fetch(q: Query, bs: Long): Paged = {
    val base = executor.execute(q.copy(limit = None, offset = None)).distinct().localCheckpoint(eager = false)
    val rows = base.rdd
    val sizes = rows.mapPartitions(it => Iterator(it.foldLeft(0L)((n, _) => n + 1))).collect().toIndexedSeq
    val bounds = Endpoint.pageBounds(sizes.sum, bs)
    val pool = Executors.newFixedThreadPool(math.max(1, math.min(parallelism, bounds.size)))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val pages = bounds.map { case (from, until) =>
        Future {
          val parts = Endpoint.slices(sizes, from, until)
          val local = parts.map { case (_, a, b) => (a, b) }
          val slice = PartitionPruningRDD.create(rows, parts.map(_._1).toSet)
            .mapPartitionsWithIndex { (i, it) => Endpoint.range(it, local(i)._1, local(i)._2) }
          val n = slice.count()
          require(n == until - from, s"page [$from, $until) returned $n rows")
          base.sparkSession.createDataFrame(slice, base.schema)
        }
      }
      Paged(Await.result(Future.sequence(pages), Duration.Inf).reduce(_ union _), bounds.size, base)
    } finally pool.shutdown()
  }
}

object Endpoint {

  /** Algorithm 3's pages of a ``total``-row result as ``[from, until)`` row
    * ranges of at most ``bs`` rows; an empty result is one empty page.
    */
  def pageBounds(total: Long, bs: Long): IndexedSeq[(Long, Long)] = {
    require(bs > 0, s"batch size must be positive, got $bs")
    require(total >= 0, s"negative result size $total")
    val pages = if (total == 0) 1L else (total - 1) / bs + 1
    require(pages <= Int.MaxValue, s"$total rows at $bs per page need more than ${Int.MaxValue} pages")
    (0 until pages.toInt).map { i =>
      val from = i * bs
      (from, from + math.min(bs, total - from))
    }
  }

  /** The part of rows ``[from, until)`` each partition holds, given the
    * partitions' sizes, as ``(partition, localFrom, localUntil)`` in
    * partition order; partitions outside the range are left out.
    */
  def slices(sizes: IndexedSeq[Long], from: Long, until: Long): IndexedSeq[(Int, Long, Long)] = {
    val starts = sizes.scanLeft(0L)(_ + _)
    sizes.indices.flatMap { p =>
      val lo = math.max(from, starts(p))
      val hi = math.min(until, starts(p + 1))
      if (lo < hi) Some((p, lo - starts(p), hi - starts(p))) else None
    }
  }

  /** Elements ``[from, until)`` of an iterator, counted as ``Long``. */
  private def range[T](it: Iterator[T], from: Long, until: Long): Iterator[T] = {
    var skipped = 0L
    while (skipped < from && it.hasNext) { it.next(); skipped += 1 }
    var left = until - from
    new Iterator[T] {
      def hasNext: Boolean = left > 0 && it.hasNext
      def next(): T = { left -= 1; it.next() }
    }
  }
}

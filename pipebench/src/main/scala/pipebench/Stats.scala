package pipebench

/** Summary statistics for the benchmark's samples. Quartiles follow
  * Python's ``statistics.quantiles(xs, n=4)`` (its default "exclusive"
  * method), so the numbers in a run record match the ones a reader computes
  * from the same samples.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** (Q1, Q2, Q3) with the exclusive method; needs at least two samples. */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.length >= 2, "quartiles need at least two samples")
    val data = xs.sorted.toIndexedSeq
    val ld = data.length
    val m = ld + 1
    val q = (1 until 4).map { i =>
      val j = math.min(math.max(i * m / 4, 1), ld - 1)
      val delta = i * m - j * 4
      (data(j - 1) * (4 - delta) + data(j) * delta) / 4
    }
    (q(0), q(1), q(2))
  }

  /** Percentiles considered for a timing's tail, highest last. */
  val ladder: Seq[Double] = Seq(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

  /** The highest percentile of [[ladder]] with at least ``beyond`` samples
    * above it, as ``(percentile, nearest-rank value)``; ``None`` when even
    * the median has fewer samples above it.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[(Double, Double)] = {
    val s = xs.sorted
    val n = s.length
    ladder.reverse.collectFirst {
      case p if n > 0 && n - rank(p, n) >= beyond => (p, s(rank(p, n) - 1))
    }
  }

  /** Nearest-rank position (1-based) of percentile ``p`` in ``n`` samples. */
  private def rank(p: Double, n: Int): Int =
    math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)
}

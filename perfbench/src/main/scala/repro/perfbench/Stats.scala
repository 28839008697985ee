package repro.perfbench

/** The value at the highest percentile that still has at least ten samples
  * ranked beyond it, with that percentile and the count beyond it. With
  * ten samples or fewer no rank qualifies, so the smallest sample is
  * reported and `beyond` (< 10) shows the shortfall.
  */
final case class Tail(value: Double, percentile: Double, beyond: Int, samples: Int)

object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def tail(xs: Seq[Double]): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.size
    val rank = math.max(1, n - 10) // 1-based; n - rank samples lie beyond it
    Tail(s(rank - 1), 100.0 * rank / n, n - rank, n)
  }
}

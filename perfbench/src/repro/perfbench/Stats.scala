package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Order statistics for the benchmark's samples.
  *
  * Percentiles are nearest-rank: `percentile(q)` is the smallest sample with
  * at least q% of the samples at or below it, so "samples beyond" it is the
  * count strictly above that rank. A percentile is *supported* when at least
  * [[Stats.MinBeyond]] samples lie beyond it; a metric named after an
  * unsupported percentile is still reported but flagged in the run record.
  */
object Stats {

  val MinBeyond = 10

  /** The percentiles a metric may be named after, highest first. */
  val Named: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  private def rank(n: Int, q: Double): Int = math.max(1, math.ceil(q / 100.0 * n - 1e-9).toInt)

  def beyond(n: Int, q: Double): Int = if (n == 0) 0 else n - rank(n, q)

  def supported(n: Int, q: Double): Boolean = beyond(n, q) >= MinBeyond

  /** The highest named percentile with at least `MinBeyond` samples beyond it. */
  def highestSupported(n: Int): Option[Double] = Named.find(q => supported(n, q))

  def percentile(sorted: Array[Double], q: Double): Double =
    if (sorted.isEmpty) 0.0 else sorted(rank(sorted.length, q) - 1)

  /** A growable sample of one measured quantity. */
  final class Sample {
    private val xs = ArrayBuffer.empty[Double]
    def add(x: Double): Unit = xs += x
    def addAll(ys: Iterable[Double]): Unit = xs ++= ys
    def n: Int = xs.size
    def sum: Double = xs.sum
    def sorted: Array[Double] = xs.toArray.sorted
    def max: Double = if (xs.isEmpty) 0.0 else xs.max
  }

  /** How a reported percentile was computed: its sample count and support. */
  final case class Support(metric: String, q: Double, n: Int) {
    def samplesBeyond: Int = beyond(n, q)
    def tooSmall: Boolean = !supported(n, q)
  }
}

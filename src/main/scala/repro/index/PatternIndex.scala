package repro.index

import repro.core.Pattern

/** Pre-computed corpus statistics for one pattern (§2.4 offline stage):
  * estimated false-positive rate FPR_T(p) and coverage Cov_T(p).
  */
final case class PatternStats(fpr: Double, cov: Long)

/** An immutable pattern-key → [[PatternStats]] map stored column-wise:
  * sorted keys, `fpr` and `cov` arrays, and an open-addressing slot array
  * of key positions. It holds no per-entry objects, so a collected index
  * costs little more than its key strings; `get` builds the
  * [[PatternStats]] it returns. Iteration follows key order.
  */
final class StatsTable private (keys: Array[String], fpr: Array[Double], cov: Array[Long])
    extends scala.collection.immutable.AbstractMap[String, PatternStats] with Serializable {

  // Power-of-two table at load ≤ 1/2; slot holds key position + 1, 0 = empty.
  private val slots: Array[Int] = {
    val t = new Array[Int](Integer.highestOneBit(math.max(1, keys.length) * 4 - 1))
    var i = 0
    while (i < keys.length) {
      var s = StatsTable.slotOf(keys(i), t.length)
      while (t(s) != 0) s = (s + 1) & (t.length - 1)
      t(s) = i + 1
      i += 1
    }
    t
  }

  private def position(key: String): Int = {
    var s = StatsTable.slotOf(key, slots.length)
    while (slots(s) != 0) {
      val i = slots(s) - 1
      if (keys(i) == key) return i
      s = (s + 1) & (slots.length - 1)
    }
    -1
  }

  def get(key: String): Option[PatternStats] = {
    val i = position(key)
    if (i < 0) None else Some(PatternStats(fpr(i), cov(i)))
  }
  def iterator: Iterator[(String, PatternStats)] =
    Iterator.range(0, keys.length).map(i => keys(i) -> PatternStats(fpr(i), cov(i)))
  override def size: Int = keys.length
  def removed(key: String): Map[String, PatternStats] = Map.from(this).removed(key)
  def updated[V1 >: PatternStats](key: String, value: V1): Map[String, V1] =
    Map.from[String, V1](this).updated(key, value)
}

object StatsTable {
  private def slotOf(key: String, n: Int): Int = {
    val h = key.hashCode
    (h ^ (h >>> 16)) & (n - 1)
  }

  /** Build from (key, fpr, cov) rows; keys must be distinct. */
  def apply(rows: Seq[(String, Double, Long)]): StatsTable = {
    val sorted = rows.sortBy(_._1).toArray
    require((1 until sorted.length).forall(i => sorted(i - 1)._1 != sorted(i)._1), "duplicate pattern key")
    new StatsTable(sorted.map(_._1), sorted.map(_._2), sorted.map(_._3))
  }
}

/** The offline index: pattern-key → (FPR_T, Cov_T). Orders of magnitude
  * smaller than the corpus; online inference only performs lookups here.
  */
final class PatternIndex(val entries: Map[String, PatternStats]) extends Serializable {

  def lookup(key: String): Option[PatternStats] = entries.get(key)

  def size: Int = entries.size

  /** Pattern count by token-length (Fig. 13a). */
  def byTokenLength: Map[Int, Long] =
    entries.keysIterator
      .map(Pattern.tokenLengthOfKey)
      .toSeq.groupBy(identity).map { case (l, xs) => l -> xs.size.toLong }

  /** Coverage histogram in powers of two (Fig. 13b: power-law head/tail).
    * Key = floor(log2(cov)), value = number of patterns in the bucket.
    */
  def coverageHistogram: Map[Int, Long] =
    entries.valuesIterator
      .map(s => (math.log(s.cov.toDouble.max(1.0)) / math.log(2)).toInt)
      .toSeq.groupBy(identity).map { case (b, xs) => b -> xs.size.toLong }

  /** "Head" domain patterns: high coverage, low FPR (§5.3 pattern analysis). */
  def headPatterns(minCov: Long, maxFpr: Double, k: Int): Seq[(String, PatternStats)] =
    entries.toSeq
      .filter { case (_, s) => s.cov >= minCov && s.fpr <= maxFpr }
      .sortBy { case (key, s) => (-s.cov, s.fpr, key) }
      .take(k)
}

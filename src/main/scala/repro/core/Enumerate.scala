package repro.core

import repro.core.Pattern._
import repro.core.Tokens.{Tok, Cls}

/** Pattern enumeration (§2.1, Algorithm 1).
  *
  * `patternsOf(v)` is P(v): every pattern consistent with value v under the
  * hierarchy — the cross-product of per-token generalization options, at two
  * granularities (fine runs and merged alnum runs) plus an alnum skeleton.
  * `shapeOf(v)` is the same set in structural form, testing p ∈ P(v)
  * without enumerating it. `hypothesis(values)` is H(C) = ∩ P(v), the
  * hypothesis space of a column (trivial ".*" excluded by construction — it
  * is not in the language).
  *
  * Values wider than `tau` tokens are not enumerated (paper §2.4: wide
  * columns are skipped at indexing and recovered via vertical cuts). If a
  * value's cross-product would exceed `cap`, options are pruned (literals
  * first, then fixed lengths) so enumeration stays tractable.
  */
object Enumerate {

  /** Default maximum tokens per enumerated value (paper uses 8 or 13; its
    * main results use 13, with 8 swept in the sensitivity analysis).
    */
  val DefaultTau = 13
  /** Default cap on |P(v)|. */
  val DefaultCap = 8192

  private def productSize(opts: Vector[Vector[PTok]]): Long =
    opts.foldLeft(1L)((acc, o) => math.min(Long.MaxValue / 2, acc * o.length))

  private def cross(opts: Vector[Vector[PTok]]): Vector[Vector[PTok]] =
    opts.foldLeft(Vector(Vector.empty[PTok])) { (acc, o) =>
      acc.flatMap(prefix => o.map(prefix :+ _))
    }

  /** Per-token option sets of one granularity, as enumeration uses them:
    * the first pruning level whose cross-product fits the cap; if even
    * level 3 does not fit, the single fallback pattern (each token keeps its
    * first option).
    */
  private def prunedOptions(toks: Vector[Tok], cap: Int): Vector[Vector[PTok]] = {
    var level = 0
    var opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    while (productSize(opts) > cap && level < 3) {
      level += 1
      opts = toks.map(t => Hierarchy.optionsPruned(t, level))
    }
    if (productSize(opts) > cap) opts.map(o => Vector(o.head)) else opts
  }

  /** Alnum-skeleton options: every digit/letter/merged run generalizes only
    * to `<alnum>{n}` / `<alnum>+` (symbols stay literal). At most 2^tokens
    * patterns, so it survives for every value under τ regardless of cap
    * pruning — which is what keeps H(C) non-empty on hex-like columns whose
    * values tokenize differently (all-digit octets vs mixed ones).
    */
  private def skeletonOptions(toks: Vector[Tok]): Vector[Vector[PTok]] =
    toks.map { t =>
      t.cls match {
        case Cls.Symbol => Vector[PTok](ConstT(t.text))
        case _ => Vector[PTok](FixLen(GClass.Alnum, t.len), VarLen(GClass.Alnum))
      }
    }

  /** The granularities P(v) is built from, each as per-token option sets:
    * fine, merged (only when it has an Alnum run) and the alnum skeleton,
    * each only when its token count is within τ. P(v) is the union of their
    * cross-products.
    */
  private def grainsOf(v: String, tau: Int, cap: Int): Vector[Vector[Vector[PTok]]] = {
    if (v == null || v.isEmpty) return Vector.empty
    val fine = Tokens.tokenize(v)
    val merged = Tokens.tokenizeMerged(v)
    val grains = Vector.newBuilder[Vector[Vector[PTok]]]
    if (fine.length <= tau) grains += prunedOptions(fine, cap)
    if (merged.length <= tau && merged.exists(_.cls == Cls.Alnum)) grains += prunedOptions(merged, cap)
    if (merged.length <= tau) grains += skeletonOptions(merged)
    grains.result()
  }

  /** P(v) in structural form: `contains(p)` decides p ∈ P(v) in
    * O(|p| · options) without enumerating P(v). A pattern is in P(v) iff
    * some granularity has p's token count and each token of p lies in that
    * position's option set — exactly the membership of the cross-products
    * [[patternsOf]] enumerates.
    */
  final class Shape private[Enumerate] (grains: Array[Array[Array[PTok]]]) {
    def contains(p: Pat): Boolean = {
      val toks = p.toks
      val n = toks.length
      var g = 0
      while (g < grains.length) {
        val grain = grains(g)
        if (grain.length == n) {
          var i = 0
          while (i < n && grain(i).contains(toks(i))) i += 1
          if (i == n) return true
        }
        g += 1
      }
      false
    }
  }

  /** Structural P(v); contains nothing for null/empty values and values
    * wider than tau tokens at both granularities.
    */
  def shapeOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Shape =
    new Shape(grainsOf(v, tau, cap).map(_.map(_.toArray).toArray).toArray)

  /** Every cross-product pattern of v's granularities, in enumeration order,
    * duplicates included (granularities overlap).
    */
  private def enumerated(v: String, tau: Int, cap: Int): Vector[Pat] =
    grainsOf(v, tau, cap).flatMap(cross).map(Pat(_))

  /** P(v): all patterns consistent with v (fine ∪ merged granularity ∪ the
    * alnum skeleton). Empty for null/empty values and values wider than tau
    * tokens at both granularities.
    */
  def patternsOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[Pat] = {
    val seen = collection.mutable.HashSet.empty[String]
    enumerated(v, tau, cap).filter(p => seen.add(p.key))
  }

  /** P(v) as a key-set (cheap set algebra for H(C) and indexing). */
  def patternKeysOf(v: String, tau: Int = DefaultTau, cap: Int = DefaultCap): Set[String] =
    patternsOf(v, tau, cap).map(_.key).toSet

  /** ∪ P(v) over `seeds`, each pattern once, in enumeration order. */
  private[core] def patternsOfAll(seeds: Seq[String], tau: Int, cap: Int): Vector[Pat] = {
    val seen = collection.mutable.HashSet.empty[Pat]
    seeds.iterator.flatMap(enumerated(_, tau, cap)).filter(seen.add).toVector
  }

  /** H(C) = ∩_{v∈C} P(v), over distinct non-empty values, restricted to
    * the patterns satisfying `keep`. Empty result means the column has no
    * single consistent pattern (heterogeneous values).
    *
    * Only the first value's P(v) is enumerated; `keep` filters it, then
    * every other value filters the live set through its [[Shape]].
    */
  def hypothesis(values: Seq[String], tau: Int = DefaultTau, cap: Int = DefaultCap,
                 keep: Pat => Boolean = _ => true): Vector[Pat] = {
    val distinct = values.filter(v => v != null && v.nonEmpty).distinct
    if (distinct.isEmpty) return Vector.empty
    var live = patternsOfAll(distinct.take(1), tau, cap).filter(keep)
    val it = distinct.iterator.drop(1)
    while (it.hasNext && live.nonEmpty) {
      val shape = shapeOf(it.next(), tau, cap)
      live = live.filter(shape.contains)
    }
    live
  }

  /** Per-column pattern→match-count map used by the offline indexer:
    * for each pattern p ∈ P(D), the number of values v ∈ D with p ∈ P(v).
    * `values` should already be capped by the caller. Wide values (> tau
    * tokens) contribute to no pattern but still count toward |D| (the caller
    * divides by total value count to get impurity).
    */
  def columnPatternCounts(values: Seq[String], tau: Int = DefaultTau,
                          cap: Int = DefaultCap): collection.Map[String, Int] = {
    val counts = collection.mutable.HashMap.empty[String, Int]
    val byValue = values.filter(v => v != null && v.nonEmpty).groupBy(identity)
    for ((v, occs) <- byValue) {
      val mult = occs.size
      for (k <- patternKeysOf(v, tau, cap))
        counts.update(k, counts.getOrElse(k, 0) + mult)
    }
    counts
  }

  /** Algorithm 1 (GeneratePatterns): coarse patterns with a coverage
    * threshold, then drill-down keeping fine patterns meeting the threshold.
    * Returns patterns covering at least `minCoverage` fraction of values —
    * this is the profiling-style entry point (used by FMDV-H's greedy step
    * and by profiling baselines).
    */
  def generatePatterns(values: Seq[String], minCoverage: Double,
                       tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[(Pat, Int)] = {
    val vs = values.filter(v => v != null && v.nonEmpty)
    if (vs.isEmpty) return Vector.empty
    val need = math.ceil(minCoverage * vs.size).toInt
    val counts = columnPatternCounts(vs, tau, cap)
    counts.iterator
      .filter(_._2 >= need)
      .map { case (k, c) => (Pattern.parse(k), c) }
      .toVector
      .sortBy { case (p, c) => (-c, -p.specificity, p.key) }
  }
}

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

  /** Per-column pattern→match-count map, the reference definition behind
    * the offline indexer's evidence: for each pattern p ∈ P(D), the number
    * of values v ∈ D with p ∈ P(v). `values` should already be capped by the
    * caller. Wide values (> tau tokens) contribute to no pattern but still
    * count toward |D| (the caller divides by total value count to get
    * impurity). The indexer itself calls [[frequentPatternCounts]], which
    * skips the patterns below its coverage threshold.
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

  /** [[columnPatternCounts]] restricted to counts ≥ `minCount`, without
    * enumerating the rare patterns: Algorithm 1's coverage threshold applied
    * during enumeration, as Apriori-style support pruning.
    *
    * The distinct values' granularities are bucketed by token count n. For
    * each n, a depth-first walk over token positions carries the values
    * whose option sets contain the prefix so far, each with a bitmask of its
    * still-live length-n granularities. A prefix is extended by an option
    * only while the multiplicity-weighted count of live values is
    * ≥ `minCount`, and a key is built only at a leaf. Exact: every prefix of
    * p is live in every value counted by count(p), so no frequent pattern is
    * cut; a value is counted once per prefix even when two of its
    * granularities contain it.
    */
  def frequentPatternCounts(values: Seq[String], minCount: Int, tau: Int = DefaultTau,
                            cap: Int = DefaultCap): collection.Map[String, Int] = {
    val counts = collection.mutable.HashMap.empty[String, Int]
    val byValue = values.filter(v => v != null && v.nonEmpty).groupBy(identity)
    val need = math.max(1, minCount)
    val ids = collection.mutable.HashMap.empty[PTok, Int]
    val tokKeys = collection.mutable.ArrayBuffer.empty[String]
    def id(t: PTok): Int = ids.getOrElseUpdate(t, { tokKeys += Pat(Vector(t)).key; tokKeys.size - 1 })
    // token count n -> (multiplicity, the value's length-n granularities as option ids)
    val rows = collection.mutable.HashMap.empty[Int, collection.mutable.ArrayBuffer[(Int, Array[Array[Array[Int]]])]]
    for ((v, occs) <- byValue; (n, grains) <- grainsOf(v, tau, cap).groupBy(_.length))
      rows.getOrElseUpdate(n, collection.mutable.ArrayBuffer.empty) +=
        ((occs.size, grains.map(_.map(_.map(id).toArray).toArray).toArray))
    val walk = new PrefixWalk(tokKeys.toArray, need, counts)
    for ((n, rs) <- rows if rs.iterator.map(_._1).sum >= need)
      walk.run(n, rs.map(_._1).toArray, rs.map(_._2).toArray)
    counts
  }

  /** The prefix walk of [[frequentPatternCounts]], reusing its scratch
    * arrays (indexed by option id) across token counts and tree nodes.
    * Row r of a run has multiplicity `mult(r)` and granularities
    * `grains(r)(g)(position)`, each an array of option ids.
    */
  private final class PrefixWalk(tokKeys: Array[String], need: Int,
                                 out: collection.mutable.Map[String, Int]) {
    private val weight = new Array[Int](tokKeys.length)
    private val nodeOf = new Array[Long](tokKeys.length) // node whose weight(o) is current
    private val rowOf = new Array[Long](tokKeys.length)  // (node, row) that last counted o
    private var stamp = 0L
    private var n = 0
    private var mult: Array[Int] = _
    private var grains: Array[Array[Array[Array[Int]]]] = _
    private var path: Array[Int] = _
    private val sb = new java.lang.StringBuilder

    def run(n: Int, mult: Array[Int], grains: Array[Array[Array[Array[Int]]]]): Unit = {
      this.n = n; this.mult = mult; this.grains = grains
      path = new Array[Int](n)
      extend(0, Array.tabulate(mult.length)(identity), grains.map(gs => (1 << gs.length) - 1), mult.length)
    }

    /** Extend the prefix `path(0 until d)`, live in rows `live(k)` with
      * granularity masks `masks(k)` for k < size, by each frequent option.
      */
    private def extend(d: Int, live: Array[Int], masks: Array[Int], size: Int): Unit = {
      stamp += 1
      val node = stamp
      val touched = collection.mutable.ArrayBuilder.make[Int]
      var k = 0
      while (k < size) {
        val r = live(k)
        val gs = grains(r)
        stamp += 1
        var g = 0
        while (g < gs.length) {
          if ((masks(k) & (1 << g)) != 0) {
            val opts = gs(g)(d)
            var j = 0
            while (j < opts.length) {
              val o = opts(j)
              if (rowOf(o) != stamp) {
                rowOf(o) = stamp
                if (nodeOf(o) != node) { nodeOf(o) = node; weight(o) = 0; touched += o }
                weight(o) += mult(r)
              }
              j += 1
            }
          }
          g += 1
        }
        k += 1
      }
      val frequent = touched.result().filter(o => weight(o) >= need)
      val support = frequent.map(weight(_))
      var f = 0
      while (f < frequent.length) {
        val o = frequent(f)
        path(d) = o
        if (d == n - 1) emit(support(f))
        else {
          val childLive = new Array[Int](size)
          val childMasks = new Array[Int](size)
          var childSize = 0
          k = 0
          while (k < size) {
            val gs = grains(live(k))
            var m = 0
            var g = 0
            while (g < gs.length) {
              if ((masks(k) & (1 << g)) != 0 && has(gs(g)(d), o)) m |= 1 << g
              g += 1
            }
            if (m != 0) { childLive(childSize) = live(k); childMasks(childSize) = m; childSize += 1 }
            k += 1
          }
          extend(d + 1, childLive, childMasks, childSize)
        }
        f += 1
      }
    }

    private def has(opts: Array[Int], o: Int): Boolean = {
      var j = 0
      while (j < opts.length && opts(j) != o) j += 1
      j < opts.length
    }

    private def emit(count: Int): Unit = {
      sb.setLength(0)
      var i = 0
      while (i < n) {
        if (i > 0) sb.append(Pattern.SEP)
        sb.append(tokKeys(path(i)))
        i += 1
      }
      out.update(sb.toString, count)
    }
  }

  /** Algorithm 1 (GeneratePatterns): coarse patterns with a coverage
    * threshold, then drill-down keeping fine patterns meeting the threshold.
    * Returns patterns covering at least `minCoverage` fraction of values —
    * this is the profiling-style entry point (used by the Potter's Wheel and
    * profiler baselines). Only the patterns meeting the threshold are
    * enumerated ([[frequentPatternCounts]]).
    */
  def generatePatterns(values: Seq[String], minCoverage: Double,
                       tau: Int = DefaultTau, cap: Int = DefaultCap): Vector[(Pat, Int)] = {
    val vs = values.filter(v => v != null && v.nonEmpty)
    if (vs.isEmpty) return Vector.empty
    val need = math.ceil(minCoverage * vs.size).toInt
    frequentPatternCounts(vs, need, tau, cap).iterator
      .map { case (k, c) => (Pattern.parse(k), c) }
      .toVector
      .sortBy { case (p, c) => (-c, -p.specificity, p.key) }
  }
}

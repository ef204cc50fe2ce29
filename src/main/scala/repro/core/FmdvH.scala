package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** FMDV-H (§4): horizontal cuts for columns with ad-hoc special values.
  *
  * The exact problem is NP-hard (Theorem 2) for arbitrary hierarchies; over
  * the enumerated pattern space we can solve it directly: the candidate set
  * of Eq. (13)+(16) is every pattern in ∪_{v∈C} P(v) that matches at least
  * (1-θ)|C| values, and the best feasible candidate under the FPR/coverage
  * constraints (Eqs. 14–15) is selected exactly as in basic FMDV. Values the
  * chosen pattern does not match are the horizontally "cut" ones.
  *
  * The learned rule is *tolerant*: it remembers the train non-conforming
  * fraction θ_C and flags a future batch only when its non-conforming
  * fraction θ_C' increased significantly under a two-sample test (§4).
  */
object FmdvH {

  /** Result: chosen pattern + the train-time non-conformance it tolerates. */
  final case class HSolution(pat: Pat, fpr: Double, nonConfTrain: Int, nTrain: Int) {
    def thetaTrain: Double = if (nTrain == 0) 0.0 else nonConfTrain.toDouble / nTrain
  }

  /** FMDV-H: flat horizontal cut (full-column patterns only). */
  def solve(values: Seq[String], index: PatternIndex,
            cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    val vs = values.filter(_ != null)
    val n = vs.size // empty strings count toward |C| as non-conforming
    if (n == 0) return None
    val need = math.ceil((1 - cfg.theta) * n).toInt
    Fmdv.best(candidates(vs, need, cfg), index, cfg).map { s =>
      val matched = vs.count(v => s.pat.matches(v))
      HSolution(s.pat, s.fpr, n - matched, n)
    }
  }

  /** The Eq. 13+16 candidate set: every p ∈ ∪_{v∈C} P(v) that lies in P(v)
    * for at least `need` of the values (counted with multiplicity; empty
    * values lie in no P(v)).
    *
    * The values whose P(v) misses such a p hold at most (non-empty − need)
    * occurrences, so p lies in P(v) of one of the most frequent distinct
    * values taken until their multiplicity exceeds that. Only those are
    * enumerated; each candidate is counted over all values by [[Enumerate.Shape]].
    */
  private[core] def candidates(values: Seq[String], need: Int, cfg: FmdvConfig = FmdvConfig()): Vector[Pat] = {
    val byValue = values.filter(v => v != null && v.nonEmpty)
      .groupBy(identity).toVector
      .map { case (v, occs) => (v, occs.size) }
      .sortBy { case (v, mult) => (-mult, v) }
    val slack = byValue.map(_._2).sum - need // occurrences a candidate may miss
    if (slack < 0) return Vector.empty
    val before = byValue.map(_._2).scanLeft(0)(_ + _) // occurrences ahead of each value
    val seeds = byValue.indices.takeWhile(i => before(i) <= slack).map(i => byValue(i)._1)
    val shapes = byValue.map { case (v, mult) => (Enumerate.shapeOf(v, cfg.tau, cfg.cap), mult) }
    Enumerate.patternsOfAll(seeds, cfg.tau, cfg.cap).filter { p =>
      var missed = 0
      val it = shapes.iterator
      while (missed <= slack && it.hasNext) {
        val (shape, mult) = it.next()
        if (!shape.contains(p)) missed += mult
      }
      missed <= slack
    }
  }

  /** FMDV-VH: try the flat horizontal cut first (it subsumes basic FMDV);
    * when the column is too wide for full-column candidates, vertically
    * segment the dominant merged-signature group (the conforming values)
    * and keep the composed pattern if it still matches ≥ (1-θ)|C|.
    */
  def solveVH(values: Seq[String], index: PatternIndex,
              cfg: FmdvConfig = FmdvConfig()): Option[HSolution] = {
    solve(values, index, cfg) match {
      case some @ Some(_) => some
      case None =>
        val all = values.filter(_ != null)
        val vs = all.filter(_.nonEmpty)
        val n = all.size
        if (vs.isEmpty) return None
        val need = math.ceil((1 - cfg.theta) * n).toInt
        val dominant = vs.groupBy(Tokens.signatureMergedKey)
          .values.toVector.sortBy(g => (-g.size, g.head)).head
        if (dominant.size < need) None
        else FmdvV.solve(dominant, index, cfg).flatMap { v =>
          val pat = v.pattern
          val matched = all.count(x => pat.matches(x))
          if (matched >= need) Some(HSolution(pat, v.totalFpr, n - matched, n))
          else None
        }
    }
  }

  /** FMDV-H as a tolerant validation [[Method]]. */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-H") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s =>
        TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain, cfg.alpha, cfg.useChiSq))
  }

  /** FMDV-VH as a tolerant validation [[Method]]. */
  final class VhMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV-VH") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solveVH(train, index, cfg).map(s =>
        TolerantPatternRule(name, s.pat, s.nonConfTrain, s.nTrain, cfg.alpha, cfg.useChiSq))
  }
}

package repro.core

import repro.core.Pattern.Pat
import repro.index.PatternIndex

/** Configuration shared by all FMDV variants.
  *
  * @param r     FPR target (Eq. 6): FPR_T(h) ≤ r. The paper's corpus has
  *              7.2M columns and good patterns measure FPR ≈ 0.04%; on the
  *              ~2K-column synthetic lake the same good patterns measure
  *              1–5% (every impure column weighs ~3000× more), while truly
  *              bad patterns measure ≥ 17%. The default is scaled
  *              accordingly — it also leaves budget for the *sum* constraint
  *              of FMDV-V (Eq. 9) across half a dozen segments.
  * @param m     coverage target (Eq. 7): Cov_T(h) ≥ m. The paper uses 100 on
  *              a 7.2M-column corpus; defaults scale to the synthetic lake.
  * @param tau   max tokens per enumerated value (τ, §2.4)
  * @param cap   cap on |P(v)| during enumeration
  * @param theta horizontal-cut tolerance θ (§4)
  * @param alpha significance level of the distributional test (§4)
  * @param useChiSq χ²+Yates instead of Fisher exact at validation time
  */
final case class FmdvConfig(
    r: Double = 0.15,
    m: Long = 5,
    tau: Int = Enumerate.DefaultTau,
    cap: Int = Enumerate.DefaultCap,
    theta: Double = 0.10,
    alpha: Double = 0.01,
    useChiSq: Boolean = false)

/** A feasible FMDV solution: the chosen pattern and its corpus statistics. */
final case class Solution(pat: Pat, fpr: Double, cov: Long)

/** Basic FMDV (§2.3): over the hypothesis space H(C) = ∩_{v∈C} P(v), return
  * argmin FPR_T(h) subject to FPR_T(h) ≤ r and Cov_T(h) ≥ m, using only the
  * offline index (no corpus rescan). Ties break toward higher coverage (more
  * corpus evidence), then toward the more specific pattern (same observed
  * FPR and evidence, strictly more issues caught), then a deterministic key
  * order.
  */
object Fmdv {

  /** Patterns `best` could never pick are dropped from the first value's
    * P(v) before any shape test: most of P(v) is not in the index, and one
    * lookup is cheaper than testing the pattern against every other value.
    */
  def solve(values: Seq[String], index: PatternIndex, cfg: FmdvConfig = FmdvConfig()): Option[Solution] =
    best(Enumerate.hypothesis(values, cfg.tau, cfg.cap, keep = feasible(index, cfg)), index, cfg)

  /** In the index, with FPR ≤ r and coverage ≥ m. */
  private def feasible(index: PatternIndex, cfg: FmdvConfig)(p: Pat): Boolean =
    index.lookup(p.key).exists(st => st.fpr <= cfg.r && st.cov >= cfg.m)

  /** Select the best feasible pattern among candidates. */
  def best(candidates: Seq[Pat], index: PatternIndex, cfg: FmdvConfig): Option[Solution] = {
    var chosen: Option[Solution] = None
    for (h <- candidates; st <- index.lookup(h.key)) {
      if (st.fpr <= cfg.r && st.cov >= cfg.m) {
        val s = Solution(h, st.fpr, st.cov)
        chosen = chosen match {
          case None => Some(s)
          case Some(c) =>
            val better =
              s.fpr < c.fpr ||
                (s.fpr == c.fpr && (s.cov > c.cov ||
                  (s.cov == c.cov && (s.pat.specificity > c.pat.specificity ||
                    (s.pat.specificity == c.pat.specificity && s.pat.key < c.pat.key)))))
            if (better) Some(s) else chosen
        }
      }
    }
    chosen
  }

  /** FMDV as a validation [[Method]] (strict matching, like the paper's
    * basic variant: a single non-conforming future value raises an alarm).
    */
  final class AsMethod(index: PatternIndex, cfg: FmdvConfig = FmdvConfig(),
                       override val name: String = "FMDV") extends Method {
    def learn(train: Seq[String]): Option[Rule] =
      solve(train, index, cfg).map(s => StrictPatternRule(name, s.pat))
  }
}

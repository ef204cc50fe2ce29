package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, TestFixtures}
import repro.core.EnumGens._
import repro.core.Pattern._

/** The structural membership test `Enumerate.shapeOf(v).contains(p)` against
  * enumerated P(v), and the solvers built on it against reference
  * implementations that enumerate P(v) for every value.
  */
class ShapeSpec extends SparkSpec with PropHelpers {

  // ------------------------------------------------------ membership test

  test("property: shapeOf(v).contains(p) == p ∈ P(v) for p ∈ P(u) ∪ P(v)") {
    val levels = collection.mutable.Set.empty[Int]
    var pairs = 0L
    var mismatches = Vector.empty[String]
    forSamples(Gen.zip(genValue, genValue, genSettings), 400) { case (u, v, (tau, cap)) =>
      for (w <- Seq(u, v)) levels ++= levelsOf(w, tau, cap)
      val keys = Enumerate.patternKeysOf(v, tau, cap)
      val shape = Enumerate.shapeOf(v, tau, cap)
      val probes = Enumerate.patternsOf(u, tau, cap) ++ Enumerate.patternsOf(u) ++
        Enumerate.patternsOf(v, tau, cap)
      for (p <- probes) {
        pairs += 1
        if (shape.contains(p) != keys.contains(p.key))
          mismatches :+= s"'$v' (tau=$tau, cap=$cap) vs ${p.display}"
      }
    }
    assert(mismatches.isEmpty, s"${mismatches.size} of $pairs disagree, e.g. ${mismatches.take(3)}")
    assert(levels == Set(0, 1, 2, 3, 4), s"pruning levels reached: $levels")
  }

  test("shapes of null, empty and over-wide values contain nothing") {
    val p = Pat(Vector(VarLen(GClass.Digit)))
    assert(!Enumerate.shapeOf(null).contains(p))
    assert(!Enumerate.shapeOf("").contains(p))
    val wide = (1 to 20).map(_.toString).mkString("-") // 39 tokens
    val runs = Pat(Vector.fill(20)(VarLen(GClass.Digit)).flatMap(t => Vector(t, ConstT("-"))).dropRight(1))
    assert(Enumerate.shapeOf(wide, tau = 50).contains(runs))
    assert(!Enumerate.shapeOf(wide, tau = 13).contains(runs))
  }

  // ------------------------------------------------- reference: hypothesis

  /** H(C) as intersected key-sets of fully enumerated P(v). */
  private def referenceHypothesis(values: Seq[String], tau: Int, cap: Int): Set[String] = {
    val distinct = values.filter(v => v != null && v.nonEmpty).distinct
    if (distinct.isEmpty) Set.empty
    else distinct.tail.foldLeft(Enumerate.patternKeysOf(distinct.head, tau, cap)) { (live, v) =>
      live.intersect(Enumerate.patternKeysOf(v, tau, cap))
    }
  }

  test("differential: hypothesis equals the intersection of enumerated P(v)") {
    forSamples(Gen.zip(genColumn, genSettings), 200) { case (col, (tau, cap)) =>
      val h = Enumerate.hypothesis(col, tau, cap).map(_.key)
      assert(h.distinct.size == h.size, "H(C) lists a pattern twice")
      assert(h.toSet == referenceHypothesis(col, tau, cap), s"column ${col.take(5)}")
    }
  }

  // ---------------------------------------- reference: FMDV-H candidates

  /** The Eq. 13+16 candidate keys from whole-column pattern counts. */
  private def referenceCandidates(values: Seq[String], need: Int, cfg: FmdvConfig): Set[String] =
    Enumerate.columnPatternCounts(values, cfg.tau, cfg.cap).collect { case (k, c) if c >= need => k }.toSet

  private def assertSameCandidates(values: Seq[String], theta: Double, cfg: FmdvConfig): Unit = {
    val vs = values.filter(_ != null)
    val need = math.ceil((1 - theta) * vs.size).toInt
    val got = FmdvH.candidates(vs, need, cfg).map(_.key)
    assert(got.distinct.size == got.size, "a candidate is listed twice")
    assert(got.toSet == referenceCandidates(vs, need, cfg), s"theta=$theta column ${vs.take(5)}")
  }

  test("differential: FMDV-H candidates equal the count-filtered P(v) union") {
    val genRepeats = genColumn.flatMap(c => Gen.choose(1, 4).map(k => c.flatMap(v => Vector.fill(k)(v))))
    forSamples(Gen.zip(Gen.oneOf(genColumn, genRepeats), genSettings, Gen.oneOf(0.0, 0.05, 0.1, 0.3, 0.6, 1.0)), 200) {
      case (col, (tau, cap), theta) => assertSameCandidates(col, theta, FmdvConfig(tau = tau, cap = cap))
    }
  }

  test("differential: FMDV-H candidates on the B_E train prefixes") {
    for (c <- TestFixtures.benchE.take(80)) assertSameCandidates(c.train(), 0.1, FmdvConfig())
  }

  test("FMDV-H candidates: empty when too few values are non-empty") {
    assert(FmdvH.candidates(Seq("12", "", "", ""), need = 2).isEmpty)
    assert(FmdvH.candidates(Seq("12", "34", "", ""), need = 2).nonEmpty)
  }
}

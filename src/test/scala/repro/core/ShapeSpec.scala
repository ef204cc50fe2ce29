package repro.core

import org.scalacheck.{Arbitrary, Gen}
import repro.{PropHelpers, SparkSpec, TestFixtures}
import repro.core.Pattern._
import repro.core.Tokens.Tok
import repro.lake.Domains
import scala.util.Random

/** The structural membership test `Enumerate.shapeOf(v).contains(p)` against
  * enumerated P(v), and the solvers built on it against reference
  * implementations that enumerate P(v) for every value.
  */
class ShapeSpec extends SparkSpec with PropHelpers {

  // ------------------------------------------------------------ generators

  private val genLakeValue: Gen[String] = for {
    d <- Gen.oneOf(Domains.all)
    seed <- Gen.choose(0, 100000)
  } yield d.make(new Random(seed), 1).head

  private val genUnicode: Gen[String] = {
    val interesting = Gen.oneOf("09aZzé東Ω-/:. _\u0001\u0002\u0000\uD83D".toSeq)
    val ch = Gen.frequency(3 -> interesting, 1 -> Arbitrary.arbitrary[Char])
    Gen.choose(0, 14).flatMap(Gen.listOfN(_, ch)).map(_.mkString)
  }

  /** Many short runs of mixed classes, so the cross-products exceed small
    * caps and enumeration climbs through the pruning levels.
    */
  private val genWide: Gen[String] = {
    val run = Gen.oneOf(
      Gen.choose(0, 999).map(_.toString),
      Gen.oneOf("ab", "CD", "Ef", "x", "Q", "a1", "7b", "c3d4", "é9"))
    val sep = Gen.oneOf("-", " ", "/", ":", "", "")
    Gen.choose(1, 9).flatMap(n => Gen.listOfN(n, Gen.zip(run, sep)))
      .map(_.map { case (r, s) => r + s }.mkString)
  }

  private val genValue: Gen[String] =
    Gen.frequency(4 -> genLakeValue, 3 -> genUnicode, 3 -> genWide)

  /** (tau, cap) settings: the defaults, and small ones that force pruning. */
  private val genSettings: Gen[(Int, Int)] = Gen.frequency(
    3 -> Gen.const((Enumerate.DefaultTau, Enumerate.DefaultCap)),
    2 -> Gen.zip(Gen.oneOf(4, 8, 13), Gen.oneOf(1, 2, 3, 8, 64, 512)))

  /** The pruning level enumeration settles on for a granularity, 4 = the
    * level-3 fallback pattern (mirrors the enumeration's level loop).
    */
  private def levelOf(toks: Vector[Tok], cap: Int): Int = {
    def size(level: Int): Long =
      toks.foldLeft(1L)((acc, t) => math.min(Long.MaxValue / 2, acc * Hierarchy.optionsPruned(t, level).length))
    (0 to 3).find(size(_) <= cap).getOrElse(4)
  }

  // ------------------------------------------------------ membership test

  test("property: shapeOf(v).contains(p) == p ∈ P(v) for p ∈ P(u) ∪ P(v)") {
    val levels = collection.mutable.Set.empty[Int]
    var pairs = 0L
    var mismatches = Vector.empty[String]
    forSamples(Gen.zip(genValue, genValue, genSettings), 400) { case (u, v, (tau, cap)) =>
      for (w <- Seq(u, v)) {
        val fine = Tokens.tokenize(w)
        val merged = Tokens.tokenizeMerged(w)
        if (fine.nonEmpty && fine.length <= tau) levels += levelOf(fine, cap)
        if (merged.exists(_.cls == Tokens.Cls.Alnum) && merged.length <= tau) levels += levelOf(merged, cap)
      }
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

  private val genColumn: Gen[Vector[String]] = for {
    d1 <- Gen.oneOf(Domains.all)
    d2 <- Gen.oneOf(Domains.all)
    seed <- Gen.choose(0, 100000)
    n <- Gen.choose(1, 30)
    mixed <- Gen.choose(0, 3)
    dirt <- Gen.listOfN(mixed, Gen.oneOf(genUnicode, Gen.const(""), Gen.const(null: String)))
  } yield {
    val r = new Random(seed)
    val main = d1.make(r, n)
    if (mixed == 3) main ++ d2.make(r, 2) else main ++ dirt
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

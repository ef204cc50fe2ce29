package repro.core

import org.scalacheck.{Arbitrary, Gen}
import repro.core.Tokens.Tok
import repro.lake.Domains
import scala.util.Random

/** Value and column generators for the enumeration suites: lake values,
  * arbitrary Unicode, values wide enough to climb every pruning level, and
  * (tau, cap) settings that force pruning.
  */
object EnumGens {

  val genLakeValue: Gen[String] = for {
    d <- Gen.oneOf(Domains.all)
    seed <- Gen.choose(0, 100000)
  } yield d.make(new Random(seed), 1).head

  val genUnicode: Gen[String] = {
    val interesting = Gen.oneOf("09aZzé東Ω-/:. _\u0001\u0002\u0000\uD83D".toSeq)
    val ch = Gen.frequency(3 -> interesting, 1 -> Arbitrary.arbitrary[Char])
    Gen.choose(0, 14).flatMap(Gen.listOfN(_, ch)).map(_.mkString)
  }

  /** Many short runs of mixed classes, so the cross-products exceed small
    * caps and enumeration climbs through the pruning levels.
    */
  val genWide: Gen[String] = {
    val run = Gen.oneOf(
      Gen.choose(0, 999).map(_.toString),
      Gen.oneOf("ab", "CD", "Ef", "x", "Q", "a1", "7b", "c3d4", "é9"))
    val sep = Gen.oneOf("-", " ", "/", ":", "", "")
    Gen.choose(1, 9).flatMap(n => Gen.listOfN(n, Gen.zip(run, sep)))
      .map(_.map { case (r, s) => r + s }.mkString)
  }

  val genValue: Gen[String] =
    Gen.frequency(4 -> genLakeValue, 3 -> genUnicode, 3 -> genWide)

  /** (tau, cap) settings: the defaults, and small ones that force pruning. */
  val genSettings: Gen[(Int, Int)] = Gen.frequency(
    3 -> Gen.const((Enumerate.DefaultTau, Enumerate.DefaultCap)),
    2 -> Gen.zip(Gen.oneOf(4, 8, 13), Gen.oneOf(1, 2, 3, 8, 64, 512)))

  /** One or two domains' values, plus up to three dirty values (arbitrary
    * Unicode, empty, null).
    */
  val genColumn: Gen[Vector[String]] = for {
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

  /** The pruning level enumeration settles on for a granularity, 4 = the
    * level-3 fallback pattern (mirrors the enumeration's level loop).
    */
  def levelOf(toks: Vector[Tok], cap: Int): Int = {
    def size(level: Int): Long =
      toks.foldLeft(1L)((acc, t) => math.min(Long.MaxValue / 2, acc * Hierarchy.optionsPruned(t, level).length))
    (0 to 3).find(size(_) <= cap).getOrElse(4)
  }

  /** The pruning levels w's pruned granularities (fine, merged) settle on. */
  def levelsOf(w: String, tau: Int, cap: Int): Set[Int] = {
    val fine = Tokens.tokenize(w)
    val merged = Tokens.tokenizeMerged(w)
    Set.empty[Int] ++
      (if (fine.nonEmpty && fine.length <= tau) Some(levelOf(fine, cap)) else None) ++
      (if (merged.exists(_.cls == Tokens.Cls.Alnum) && merged.length <= tau) Some(levelOf(merged, cap)) else None)
  }
}

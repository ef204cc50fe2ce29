package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec, TestFixtures}
import repro.core.EnumGens._
import repro.core.Pattern._
import scala.util.Random

/** `Enumerate.frequentPatternCounts`, the prefix-support walk, against its
  * definition: `columnPatternCounts` filtered to counts ≥ the threshold.
  */
class FrequentPatternCountsSpec extends SparkSpec with PropHelpers {

  /** Checks the walk at thresholds 1, 2, ⌈0.1·n⌉, n and n + 1, where n is
    * the number of non-empty values.
    */
  private def assertMatchesReference(values: Seq[String], tau: Int = Enumerate.DefaultTau,
                                     cap: Int = Enumerate.DefaultCap): Unit = {
    val all = Enumerate.columnPatternCounts(values, tau, cap).toMap
    val n = values.count(v => v != null && v.nonEmpty)
    for (m <- Seq(1, 2, math.ceil(0.1 * n).toInt, n, n + 1).distinct) {
      val got = Enumerate.frequentPatternCounts(values, m, tau, cap).toMap
      val want = all.filter(_._2 >= m)
      if (got != want) {
        val wrong = (got.keySet ++ want.keySet).filter(k => got.get(k) != want.get(k)).take(3)
          .map(k => s"${Pattern.parse(k).display}: ${got.get(k)} vs ${want.get(k)}")
        fail(s"m=$m tau=$tau cap=$cap column ${values.take(5)}: ${wrong.mkString("; ")}")
      }
    }
  }

  test("differential: capped T_E and T_G lake columns") {
    val r = new Random(7)
    val cols = r.shuffle(TestFixtures.corpusEColumns).take(80) ++ r.shuffle(TestFixtures.corpusGColumns).take(50)
    for (c <- cols) assertMatchesReference(c.values.filter(v => v != null && v.nonEmpty).take(100))
  }

  test("property: arbitrary values at every pruning level, with duplicates, empties and nulls") {
    val levels = collection.mutable.Set.empty[Int]
    val genDirty = Gen.oneOf(genValue, Gen.const(""), Gen.const(null: String))
    val genMixed = Gen.choose(1, 12).flatMap(Gen.listOfN(_, Gen.frequency(6 -> genValue, 1 -> genDirty)))
    val genRepeats = Gen.zip(Gen.oneOf(genColumn, genMixed), Gen.choose(1, 3))
      .map { case (c, k) => c.flatMap(v => Seq.fill(k)(v)) }
    forSamples(Gen.zip(Gen.oneOf(genColumn, genMixed, genRepeats), genSettings), 300) { case (col, (tau, cap)) =>
      col.foreach(v => if (v != null) levels ++= levelsOf(v, tau, cap))
      assertMatchesReference(col, tau, cap)
    }
    assert(levels == Set(0, 1, 2, 3, 4), s"pruning levels reached: $levels")
  }

  test("degenerate columns: empty, all-null/empty, all wider than tau") {
    val wide = (1 to 20).map(i => (1 to 20).map(_ => i).mkString("-"))
    for (col <- Seq(Seq.empty[String], Seq(null, "", null), wide, wide :+ "12" :+ ""))
      assertMatchesReference(col)
    assert(Enumerate.frequentPatternCounts(wide, 1).isEmpty)
  }

  test("a value whose two equal-length granularities share a pattern counts once") {
    // "ab12": merged <alnum>{4} / <alnum>+ and the alnum skeleton both have 1 token
    val col = Seq("ab12", "ab12", "cd34")
    val fix4 = Pat(Vector(FixLen(GClass.Alnum, 4))).key
    val counts = Enumerate.frequentPatternCounts(col, 1)
    assert(counts(fix4) == 3)
    assert(counts(Pat(Vector(VarLen(GClass.Alnum))).key) == 3)
    assert(Enumerate.frequentPatternCounts(col, 3).contains(fix4))
    assert(Enumerate.frequentPatternCounts(col, 4).isEmpty)
  }

  test("generatePatterns equals the count-then-filter definition, order included") {
    for (c <- TestFixtures.benchE.take(60)) {
      val vs = c.train().filter(v => v != null && v.nonEmpty)
      val all = Enumerate.columnPatternCounts(vs).toVector
      for (cov <- Seq(0.5, 0.9, 0.95)) {
        val need = math.ceil(cov * vs.size).toInt
        val want = all.filter(_._2 >= need)
          .map { case (k, n) => (Pattern.parse(k), n) }
          .sortBy { case (p, n) => (-n, -p.specificity, p.key) }
        assert(Enumerate.generatePatterns(vs, cov) == want, s"${c.id} at $cov")
      }
    }
  }
}

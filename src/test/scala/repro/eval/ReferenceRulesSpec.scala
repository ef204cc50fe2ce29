package repro.eval

import repro.{SparkSpec, TestFixtures}
import repro.core.{Fmdv, FmdvH, FmdvV}
import scala.io.Source

/** The rules all four FMDV variants learn on the 120 patterned B_E cases,
  * against `reference_rules_BE.tsv`: the `describe` strings the solvers gave
  * when they enumerated P(v) for every value (and, for FMDV-H, counted whole
  * column pattern sets). The shape-test solvers must learn the same rules.
  * The file was recorded with an 8-partition index build; index FPRs can
  * differ in their last bits with the partition count, which the B_E rules
  * have not been seen to depend on.
  */
class ReferenceRulesSpec extends SparkSpec {

  test("FMDV, FMDV-V, FMDV-H and FMDV-VH rules on B_E are unchanged") {
    val index = TestFixtures.indexE
    val cases = Eval.patternedSubset(TestFixtures.benchE)
    assert(cases.size == 120)
    val methods = Seq(new Fmdv.AsMethod(index), new FmdvV.AsMethod(index),
      new FmdvH.AsMethod(index), new FmdvH.VhMethod(index))
    val got = for {
      m <- methods
      (id, rule) <- Eval.learnRules(m, cases, Eval.EvalConfig()).toSeq.sortBy(_._1)
    } yield s"${m.name}\t$id\t${rule.map(_.describe).getOrElse("(no rule)")}"
    val src = Source.fromInputStream(getClass.getResourceAsStream("/repro/reference_rules_BE.tsv"), "UTF-8")
    val expected = try src.getLines().toVector finally src.close()
    val diff = got.zip(expected).filter { case (g, e) => g != e }
    assert(got.size == expected.size && diff.isEmpty,
      s"${diff.size} rules differ, e.g. ${diff.take(3).map { case (g, e) => s"got [$g] expected [$e]" }}")
  }
}

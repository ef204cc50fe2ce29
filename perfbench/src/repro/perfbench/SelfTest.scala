package repro.perfbench

/** Self-tests of the benchmark's own helpers; `Main selftest` runs them and
  * exits non-zero on the first failure.
  */
object SelfTest {

  private def check(cond: Boolean, what: String): Unit =
    if (!cond) { System.err.println(s"selftest FAILED: $what"); sys.exit(1) }

  def run(): Unit = {
    // Percentile helper: nearest rank, support = at least 10 samples beyond.
    val xs = (1 to 200).map(_.toDouble).toArray
    check(Stats.percentile(xs, 50) == 100.0, "p50 of 1..200 is 100")
    check(Stats.percentile(xs, 95) == 190.0, "p95 of 1..200 is 190")
    check(Stats.beyond(200, 95) == 10, "p95 of 200 samples has 10 beyond")
    check(Stats.highestSupported(200).contains(95.0), "highest supported percentile of 200 samples is p95")
    check(Stats.highestSupported(1000).contains(99.0), "highest supported percentile of 1000 samples is p99")
    check(Stats.highestSupported(10000).contains(99.9), "highest supported percentile of 10000 samples is p99.9")
    check(Stats.highestSupported(19).isEmpty, "19 samples support no named percentile")
    check(Stats.Support("x", 99, 200).tooSmall, "p99 of 200 samples is flagged too small")
    check(!Stats.Support("x", 95, 200).tooSmall, "p95 of 200 samples is not flagged")
    check(Stats.Support("x", 50, 1).tooSmall, "a single sample is flagged too small for p50")

    // Metric names.
    for (traced <- Seq(false, true); (name, unit) <- Metrics.declared(traced)) {
      check(name.matches(Metrics.NamePattern), s"metric name '$name' matches ${Metrics.NamePattern}")
      check(unit.matches("[A-Za-z0-9_/%.-]{1,16}"), s"unit '$unit' of $name is well-formed")
    }
    for (traced <- Seq(false, true)) {
      val names = Metrics.declared(traced).map(_._1)
      check(names.distinct.size == names.size, s"metric names are unique (traced=$traced)")
    }

    // Seeded inputs: same seed, same bytes; another seed, other bytes.
    val lake = Inputs.lakeDigest(Inputs.lake(11))
    check(lake == Inputs.lakeDigest(Inputs.lake(11)), "the same lake seed gives a byte-identical lake")
    check(lake != Inputs.lakeDigest(Inputs.lake(12)), "another lake seed gives another lake")
    val q = Inputs.queryColumns(101)
    check(q.size == Inputs.QueryColumns, s"the query set has ${Inputs.QueryColumns} columns")
    check(Inputs.casesDigest(q) == Inputs.casesDigest(Inputs.queryColumns(101)),
      "the same bench seed gives byte-identical query columns")
    check(Inputs.casesDigest(q) != Inputs.casesDigest(Inputs.queryColumns(102)),
      "another bench seed gives other query columns")
    println("selftest ok")
  }
}

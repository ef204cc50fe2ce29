package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.util.{Failure, Random, Success, Try}
import repro.core.{Enumerate, Fmdv, FmdvConfig, FmdvH, FmdvV, Msa, Pattern, TolerantPatternRule}
import repro.core.FmdvH.HSolution
import repro.eval.Eval
import repro.index.PatternIndex
import repro.lake.Benchmark.BenchCase
import repro.perfbench.Stats.Sample
import repro.stats.StatTests

/** The online workloads. Both load the persisted T_E index (built once per
  * checkout, outside the timed process) and draw their query columns from
  * [[Inputs.queryColumns]] with the seed as bench seed. Neither starts Spark.
  *
  *  - `learn_rules`: a closed loop, one thread, one column after another:
  *    `FmdvH.solveVH` (FMDV-VH) learns a rule from each column's 10% train
  *    prefix. Whole passes over the columns run until the seconds are spent.
  *  - `validate_batches`: the §5.1 protocol on one thread. Each learned
  *    rule's `flags` runs on its own test split and on every other query
  *    column's test split; whole rounds run until the seconds are spent.
  */
object Online {

  val Cfg: FmdvConfig = FmdvConfig()

  private final case class Setup(cases: Vector[BenchCase], index: PatternIndex)

  private def setup(ctx: Ctx): Setup = {
    val cases = ctx.sp("lake.generate", "bench")(Inputs.queryColumns(ctx.seed, Cfg.tau, Cfg.theta))
    val index = ctx.sp("index.load", "index")(Main.loadIndex(ctx.indexPath))
    ctx.report.record ++= Seq("lake_seed" -> Main.OnlineLakeSeed, "bench_seed" -> ctx.seed,
      "query_columns" -> cases.size,
      "wide_query_columns" -> cases.count(c => Inputs.isWide(c.values, Cfg.tau)),
      "query_sha256" -> Inputs.casesDigest(cases), "index_entries" -> index.size)
    Setup(cases, index)
  }

  private def ruleOf(s: HSolution): TolerantPatternRule =
    TolerantPatternRule("FMDV-VH", s.pat, s.nonConfTrain, s.nTrain, Cfg.alpha, Cfg.useChiSq)

  /** A learned rule must match ⌈(1-θ)|train|⌉ training values and satisfy
    * the FPR/coverage targets. A flat (FMDV-H) rule is an index entry and is
    * checked against it; a vertically composed rule's FPR is the sum over its
    * segments, which must stay within r.
    */
  def ruleFailure(c: BenchCase, s: HSolution, index: PatternIndex): Option[String] = {
    val train = c.train().filter(_ != null)
    val need = math.ceil((1 - Cfg.theta) * train.size).toInt
    val matched = train.count(v => s.pat.matches(v))
    if (matched < need) Some(s"${c.id}: rule matches $matched of ${train.size} train values, needs $need")
    else if (!(s.fpr <= Cfg.r)) Some(s"${c.id}: rule FPR ${s.fpr} exceeds r=${Cfg.r}")
    else index.lookup(s.pat.key) match {
      case Some(st) if st.fpr == s.fpr && st.cov < Cfg.m => Some(s"${c.id}: rule coverage ${st.cov} below m=${Cfg.m}")
      case _ => None
    }
  }

  private def digest(lines: Seq[String]): String =
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString

  private def shuffled[A](xs: Vector[A], seed: Long, pass: Int): Vector[A] =
    if (pass == 0) xs else new Random(seed * 31 + pass).shuffle(xs)

  // ---------------------------------------------------------------- learn_rules

  def learnRules(ctx: Ctx): Unit = {
    val Setup(cases, index) = setup(ctx)
    // Warm-up: the narrow columns, learned on all cores the way Eval learns
    // rules. A wide one takes the FMDV-V path at seconds per column and
    // would double set-up time.
    Eval.learnRules(new FmdvH.VhMethod(index, Cfg), cases.filterNot(c => Inputs.isWide(c.train(), Cfg.tau)),
      Eval.EvalConfig())
    ctx.setupDone()
    if (ctx.traced) learnTraced(ctx, cases, index) else learnMeasured(ctx, cases, index)
  }

  /** One learning operation, counted and checked afterwards; returns the
    * time `solveVH` took, in ms.
    */
  private def learnOne(ctx: Ctx, c: BenchCase, index: PatternIndex, checkIndex: PatternIndex,
                       firstPass: collection.mutable.Map[String, String]): Double = {
    val train = c.train()
    val s = System.nanoTime()
    val res = Try(FmdvH.solveVH(train, index, Cfg))
    val e = System.nanoTime()
    ctx.tracer.foreach(_.record("fmdv_h.solve_vh", c.id, s, e))
    ctx.report.op(res match {
      case Failure(e) => Some(s"${c.id}: solveVH threw $e")
      case Success(sol) =>
        val text = sol.map(s => ruleOf(s).describe).getOrElse("(no rule)")
        firstPass.get(c.id) match {
          case Some(t) if t != text => Some(s"${c.id}: rule changed between passes")
          case _ =>
            firstPass(c.id) = text
            sol.flatMap(ruleFailure(c, _, checkIndex))
        }
    })
    (e - s) / 1e6
  }

  private def learnMeasured(ctx: Ctx, cases: Vector[BenchCase], index: PatternIndex): Unit = {
    val r = ctx.report
    val ms = new Sample
    val rules = collection.mutable.LinkedHashMap.empty[String, String]
    val t0 = System.nanoTime()
    var pass = 0
    while (pass == 0 || System.nanoTime() - t0 < ctx.seconds * 1000000000L) {
      for (c <- shuffled(cases, ctx.seed, pass)) ms.add(learnOne(ctx, c, index, index, rules))
      pass += 1
    }
    r.pct("op_ms_p50", ms, 50)
    r.pct("op_ms_tail", ms, 95)
    r.put("work_per_s", ms.n / (ms.sum / 1000.0))
    val withRule = rules.values.count(_ != "(no rule)")
    val d = digest(rules.toSeq.sortBy(_._1).map { case (id, t) => s"$id\t$t" })
    r.record ++= Seq("passes" -> pass, "op_ms_tail_is" -> "p95 per column", "columns_with_rule" -> withRule,
      "rules_sha256" -> d, "learn_ms_max" -> ms.max)
    println(f"learn_rules: $pass pass(es) over ${cases.size} columns; $withRule with a rule; " +
      f"p50 ${Stats.percentile(ms.sorted, 50)}%.2f ms, p95 ${Stats.percentile(ms.sorted, 95)}%.1f ms, " +
      f"max ${ms.max / 1000}%.2f s; rules sha256 $d")
  }

  private def learnTraced(ctx: Ctx, cases: Vector[BenchCase], index: PatternIndex): Unit = {
    val r = ctx.report
    val tracer = ctx.tracer.get
    val refStart = System.nanoTime()
    cases.foreach(c => FmdvH.solveVH(c.train(), index, Cfg))
    val refMs = (System.nanoTime() - refStart) / 1e6

    val counting = new CountingMap(index.entries)
    val countingIndex = new PatternIndex(counting)
    val rules = collection.mutable.Map.empty[String, String]
    val candidates, pvSize, profileLen, dpSelf = new Sample
    var fallbacks = 0
    val tracedStart = System.nanoTime()
    for (c <- cases) tracer.span("learn.column", c.id) {
      val id = c.id
      learnOne(ctx, c, countingIndex, index, rules)
      // Probes: each layer called on this column's data as FmdvH.solveVH
      // calls it, with the plain index so only the solver's lookups count.
      val train = c.train().filter(_ != null)
      val need = math.ceil((1 - Cfg.theta) * train.size).toInt
      val counts = tracer.span("enum.column_counts_train", id)(
        Enumerate.columnPatternCounts(train, Cfg.tau, Cfg.cap))
      val cands = counts.iterator.collect { case (k, n) if n >= need => Pattern.parse(k) }.toVector
      candidates.add(cands.size)
      tracer.span("fmdv.best", id)(Fmdv.best(cands, index, Cfg))
      val flat = tracer.span("fmdv_h.solve", id)(FmdvH.solve(train, index, Cfg))
      train.filter(_.nonEmpty).distinct.foreach(v => pvSize.add(Enumerate.patternsOf(v, Cfg.tau, Cfg.cap).size))
      val dominant = Inputs.dominantGroup(train)
      if (dominant.nonEmpty) {
        val (aligned, msaMs) = tracer.timed("msa.align", id)(Msa.alignValues(dominant.distinct))
        profileLen.add(aligned.length)
        if (flat.isEmpty) {
          fallbacks += 1
          if (dominant.size >= need) {
            val (_, vMs) = tracer.timed("fmdv_v.solve", id)(FmdvV.solve(dominant, index, Cfg))
            dpSelf.add(vMs - msaMs)
          }
        }
      }
    }
    val tracedMs = (System.nanoTime() - tracedStart) / 1e6

    putSetupLayers(ctx, index)
    r.pct("fmdv_h.solve_ms_p50", tracer.durationsMs("fmdv_h.solve"), 50)
    r.pct("fmdv_h.solve_ms_p95", tracer.durationsMs("fmdv_h.solve"), 95)
    r.pct("enum.column_counts_train_ms_p50", tracer.durationsMs("enum.column_counts_train"), 50)
    r.pct("enum.column_counts_train_ms_p95", tracer.durationsMs("enum.column_counts_train"), 95)
    r.pct("enum.pv_size_p50", pvSize, 50)
    r.pct("enum.pv_size_p95", pvSize, 95)
    r.pct("fmdv_h.candidates_p50", candidates, 50)
    r.pct("fmdv_h.candidates_p95", candidates, 95)
    r.put("lookup.calls", counting.calls.toDouble)
    r.put("lookup.hit_frac", if (counting.calls == 0) 0.0 else counting.hits.toDouble / counting.calls)
    r.pct("fmdv.best_ms_p50", tracer.durationsMs("fmdv.best"), 50)
    r.pct("fmdv.best_ms_p95", tracer.durationsMs("fmdv.best"), 95)
    r.pct("msa.align_ms_p50", tracer.durationsMs("msa.align"), 50)
    r.pct("msa.align_ms_p95", tracer.durationsMs("msa.align"), 95)
    r.pct("msa.profile_len_p50", profileLen, 50)
    r.pct("msa.profile_len_p95", profileLen, 95)
    r.put("vh.fallback_frac", fallbacks.toDouble / cases.size)
    val v = tracer.durationsMs("fmdv_v.solve")
    r.pct("fmdv_v.solve_ms_p50", v, 50)
    r.pct("fmdv_v.solve_ms_p95", v, 95)
    r.put("fmdv_v.solve_ms_max", v.max)
    r.pct("fmdv_v.dp_self_ms_p95", dpSelf, 95)
    r.put("trace.overhead_frac", tracedMs / refMs - 1)
    r.record ++= Seq("reference_pass_ms" -> refMs, "traced_phase_ms" -> tracedMs,
      "fmdv_v_calls" -> v.n, "columns_with_rule" -> rules.values.count(_ != "(no rule)"))
    println(f"learn_rules trace: ${cases.size} columns, $fallbacks fall back to FMDV-V, " +
      f"FmdvV.solve max ${v.max / 1000}%.2f s, ${counting.calls} index lookups")
  }

  private def putSetupLayers(ctx: Ctx, index: PatternIndex): Unit = {
    val t = ctx.tracer.get
    ctx.report.put("lake.generate_s", t.durationsMs("lake.generate").sum / 1000)
    ctx.report.put("index.collect_s", t.durationsMs("index.load").sum / 1000)
    ctx.report.put("index.entries", index.size.toDouble)
  }

  // ----------------------------------------------------------- validate_batches

  def validateBatches(ctx: Ctx): Unit = {
    val Setup(cases, index) = setup(ctx)
    val learned = Eval.learnRules(new FmdvH.VhMethod(index, Cfg), cases, Eval.EvalConfig())
    val rules = cases.map(c => learned(c.id).collect { case r: TolerantPatternRule => r })
    val tests = cases.map(_.test())
    val pairs = for (i <- cases.indices.toVector if rules(i).isDefined; j <- cases.indices) yield (i, j)
    // Warm-up: one untimed round, so the JIT profiles the whole mix of rules
    // and batches before it compiles the matching code.
    for ((i, j) <- pairs) rules(i).get.flags(tests(j))
    ctx.report.record ++= Seq("rules" -> rules.count(_.isDefined), "batches_per_round" -> pairs.size)
    ctx.setupDone()
    // outcome(i)(j): 0 = not run yet, 1 = no alarm, 2 = alarm
    val outcome = Array.ofDim[Byte](cases.size, cases.size)
    // One batch, counted and checked afterwards; returns the time `flags` took, in ms.
    def runBatch(i: Int, j: Int): Double = {
      val s = System.nanoTime()
      val res = Try(rules(i).get.flags(tests(j)))
      val e = System.nanoTime()
      ctx.tracer.foreach(_.record("rule.flags", s"${cases(i).id}>${cases(j).id}", s, e))
      val code: Byte = res match { case Success(true) => 2; case Success(false) => 1; case _ => 0 }
      ctx.report.op(res match {
        case Failure(e) => Some(s"${cases(i).id} on ${cases(j).id}: flags threw $e")
        case Success(_) if outcome(i)(j) != 0 && outcome(i)(j) != code =>
          Some(s"${cases(i).id} on ${cases(j).id}: outcome changed between rounds")
        case _ => outcome(i)(j) = code; None
      })
      (e - s) / 1e6
    }
    if (ctx.traced) validateTraced(ctx, Setup(cases, index), rules, tests, pairs, runBatch)
    else validateMeasured(ctx, tests, pairs, runBatch)
    precisionRecall(ctx, cases, rules.map(_.isDefined), outcome)
  }

  private def validateMeasured(ctx: Ctx, tests: Vector[Vector[String]], pairs: Vector[(Int, Int)],
                               runBatch: (Int, Int) => Double): Unit = {
    val r = ctx.report
    val ms = new Sample
    var values = 0L
    val t0 = System.nanoTime()
    var round = 0
    while (round == 0 || System.nanoTime() - t0 < ctx.seconds * 1000000000L) {
      for ((i, j) <- shuffled(pairs, ctx.seed, round + 1)) {
        ms.add(runBatch(i, j))
        values += tests(j).size
      }
      round += 1
    }
    r.pct("op_ms_p50", ms, 50)
    r.pct("op_ms_tail", ms, 99)
    r.put("work_per_s", values / (ms.sum / 1000.0))
    r.record ++= Seq("rounds" -> round, "batches" -> ms.n, "values" -> values, "op_ms_tail_is" -> "p99 per batch")
    println(f"validate_batches: $round round(s) of ${pairs.size} batches, $values values; " +
      f"p50 ${Stats.percentile(ms.sorted, 50) * 1000}%.1f us, p99 ${Stats.percentile(ms.sorted, 99)}%.3f ms")
  }

  private def validateTraced(ctx: Ctx, setup: Setup, rules: Vector[Option[TolerantPatternRule]],
                             tests: Vector[Vector[String]], pairs: Vector[(Int, Int)],
                             runBatch: (Int, Int) => Double): Unit = {
    val r = ctx.report
    val tracer = ctx.tracer.get
    val cases = setup.cases
    val order = shuffled(pairs, ctx.seed, 1)
    val refStart = System.nanoTime()
    order.foreach { case (i, j) => rules(i).get.flags(tests(j)) }
    val refMs = (System.nanoTime() - refStart) / 1e6

    val nsPerValue, fisherUs = new Sample
    var values, nonconf, alarms = 0L
    val tracedStart = System.nanoTime()
    for ((i, j) <- order) {
      val id = s"${cases(i).id}>${cases(j).id}"
      val rule = rules(i).get
      val test = tests(j)
      tracer.span("validate.batch", id) {
        runBatch(i, j)
        // Probes: the matching and the test that `flags` runs, timed apart.
        val (bad, matchMs) = tracer.timed("match.batch", id)(test.count(v => v == null || !rule.pat.matches(v)))
        nsPerValue.add(matchMs * 1e6 / test.size)
        values += test.size
        nonconf += bad
        if (bad.toDouble / test.size > rule.thetaTrain) {
          val (p, us) = tracer.timed("stats.fisher", id)(
            StatTests.fisherExactTwoTailed(rule.nonConfTrain, rule.nTrain - rule.nonConfTrain, bad, test.size - bad))
          fisherUs.add(us * 1000)
          if (p < rule.alpha) alarms += 1
        }
      }
    }
    val tracedMs = (System.nanoTime() - tracedStart) / 1e6

    putSetupLayers(ctx, setup.index)
    r.put("match.values", values.toDouble)
    r.pct("match.ns_per_value_p50", nsPerValue, 50)
    r.pct("match.ns_per_value_p99", nsPerValue, 99)
    r.put("match.nonconf_frac", nonconf.toDouble / values)
    r.pct("rule.flags_ms_p50", tracer.durationsMs("rule.flags"), 50)
    r.pct("rule.flags_ms_p99", tracer.durationsMs("rule.flags"), 99)
    r.put("stats.fisher_calls", fisherUs.n.toDouble)
    r.pct("stats.fisher_us_p50", fisherUs, 50)
    r.pct("stats.fisher_us_p99", fisherUs, 99)
    r.put("validate.alarm_frac", alarms.toDouble / order.size)
    r.put("trace.overhead_frac", tracedMs / refMs - 1)
    r.record ++= Seq("reference_round_ms" -> refMs, "traced_phase_ms" -> tracedMs, "batches" -> order.size)
  }

  /** §5.1 programmatic precision and recall over the query columns, held to
    * the Figure 10(a) gate for FMDV-VH.
    */
  private def precisionRecall(ctx: Ctx, cases: Vector[BenchCase], hasRule: Vector[Boolean],
                              outcome: Array[Array[Byte]]): Unit = {
    val n = cases.size
    val perCase = cases.indices.map { i =>
      if (!hasRule(i)) (1.0, 0.0)
      else if (outcome(i)(i) == 2) (0.0, 0.0)
      else (1.0, cases.indices.count(j => j != i && outcome(i)(j) == 2).toDouble / (n - 1))
    }
    val p = perCase.map(_._1).sum / n
    val rc = perCase.map(_._2).sum / n
    ctx.report.record ++= Seq("precision" -> p, "recall" -> rc)
    println(f"validate_batches: FMDV-VH precision $p%.3f recall $rc%.3f over $n query columns (gate P>=0.90, R>=0.70)")
    if (!(p >= 0.90 && rc >= 0.70)) ctx.report.checkFailed(f"precision $p%.3f / recall $rc%.3f below the Figure 10(a) gate")
  }
}

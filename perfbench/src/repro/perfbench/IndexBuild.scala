package repro.perfbench

import scala.collection.mutable
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.Dataset
import repro.core.Enumerate
import repro.index.{OfflineIndexer, PatternIndex}
import repro.index.OfflineIndexer.IndexConfig
import repro.lake.LakeColumn
import repro.perfbench.Stats.Sample

/** Workload `index_build`: the offline path (§2.4). Set-up generates the
  * T_E lake for the seed; the timed operation is `OfflineIndexer.build` +
  * `collectIndex` over it, repeated until the run's seconds are spent (at
  * least once). Only Spark, executor-side enumeration and the aggregation
  * do work here.
  */
object IndexBuild {

  val Cfg: IndexConfig = IndexConfig()

  /** Columns of the sub-corpus whose index is recomputed outside Spark. */
  private val CheckColumns = 30
  /** Index patterns whose cov/FPR are recounted over the full corpus (traced). */
  private val SampledPatterns = 200
  /** Corpus columns timed one at a time through `columnPatternCounts` (traced). */
  private val EnumColumns = 240

  def run(ctx: Ctx): Unit = {
    val spark = ctx.spark.get
    import spark.implicits._
    val cols = ctx.sp("lake.generate", "lake")(Inputs.lake(ctx.seed))
    val ds = spark.createDataset(cols).repartition(Main.Partitions)
    ctx.report.record ++= Seq("lake_seed" -> ctx.seed, "lake_columns" -> cols.size,
      "lake_sha256" -> Inputs.lakeDigest(cols))
    ctx.setupDone()
    if (ctx.traced) traced(ctx, cols, ds) else measured(ctx, cols, ds)
  }

  private def build(ds: Dataset[LakeColumn]): PatternIndex =
    OfflineIndexer.collectIndex(OfflineIndexer.build(ds, Cfg))

  /** Entry invariants: 0 ≤ FPR ≤ 1 and cov ≥ minCov. */
  private def invariantFailure(idx: PatternIndex): Option[String] =
    idx.entries.collectFirst {
      case (k, s) if !(s.fpr >= 0.0 && s.fpr <= 1.0 && s.cov >= Cfg.minCov) =>
        s"index entry violates 0<=fpr<=1, cov>=${Cfg.minCov}: fpr=${s.fpr} cov=${s.cov} key=$k"
    }

  private def sameEntries(a: PatternIndex, b: PatternIndex): Boolean =
    a.size == b.size && a.entries.forall { case (k, s) =>
      b.lookup(k).exists(t => t.cov == s.cov && math.abs(t.fpr - s.fpr) <= 1e-9)
    }

  private def measured(ctx: Ctx, cols: Vector[LakeColumn], ds: Dataset[LakeColumn]): Unit = {
    val r = ctx.report
    val ms = new Sample
    var first: Option[PatternIndex] = None
    val t0 = System.nanoTime()
    while (ms.n == 0 || System.nanoTime() - t0 < ctx.seconds * 1000000000L) {
      val s = System.nanoTime()
      val built = Try(build(ds))
      ms.add((System.nanoTime() - s) / 1e6)
      r.op(built match {
        case Failure(e) => Some(s"index build threw $e")
        case Success(idx) =>
          if (first.isEmpty) first = Some(idx)
          invariantFailure(idx).orElse(
            if (sameEntries(first.get, idx)) None else Some("a repeated build gave a different index"))
      })
    }
    r.pct("op_ms_p50", ms, 50)
    r.put("op_ms_tail", ms.max)
    r.put("work_per_s", cols.size * ms.n / (ms.sum / 1000.0))
    r.record ++= Seq("builds" -> ms.n, "op_ms_tail_is" -> "max over builds",
      "index_entries" -> first.map(_.size).getOrElse(0))
    println(f"index_build: ${ms.n} build(s) of ${cols.size} columns, median ${Stats.percentile(ms.sorted, 50) / 1000}%.2f s, " +
      s"${first.map(_.size).getOrElse(0)} entries")
    r.op(subCorpusCheck(ctx, cols))
  }

  /** Recompute FPR/cov of every pattern over a seeded sub-corpus outside
    * Spark, and compare with `OfflineIndexer.build` over the same columns.
    */
  private def subCorpusCheck(ctx: Ctx, cols: Vector[LakeColumn]): Option[String] = {
    val spark = ctx.spark.get
    import spark.implicits._
    val sub = Inputs.sampleIdx(ctx.seed, cols.size, CheckColumns).map(cols)
    Try(build(spark.createDataset(sub).repartition(Main.Partitions))) match {
      case Failure(e) => Some(s"sub-corpus build threw $e")
      case Success(idx) =>
        val ref = reference(sub)
        val bad = ref.keySet ++ idx.entries.keySet filterNot { k =>
          (ref.get(k), idx.lookup(k)) match {
            case (Some((cov, fpr)), Some(s)) => s.cov == cov && math.abs(s.fpr - fpr) <= 1e-9
            case _ => false
          }
        }
        println(s"index_build check: ${idx.size} entries of a ${sub.size}-column sub-corpus, ${bad.size} differ from the single-threaded recount")
        if (bad.isEmpty) None else Some(s"${bad.size} sub-corpus index entries differ from the recount")
    }
  }

  /** Definition 3 over a column set: pattern -> (cov, FPR), entries with
    * cov ≥ minCov only.
    */
  private def reference(cols: Seq[LakeColumn]): Map[String, (Long, Double)] = {
    val acc = mutable.HashMap.empty[String, (Long, Double)]
    for (c <- cols; (k, imp) <- Inputs.evidence(c.values, Cfg).kept) {
      val (n, sum) = acc.getOrElse(k, (0L, 0.0))
      acc(k) = (n + 1, sum + imp)
    }
    acc.iterator.collect { case (k, (n, sum)) if n >= Cfg.minCov => k -> (n, sum / n) }.toMap
  }

  private def traced(ctx: Ctx, cols: Vector[LakeColumn], ds: Dataset[LakeColumn]): Unit = {
    val r = ctx.report
    val tracer = ctx.tracer.get
    val refStart = System.nanoTime()
    build(ds)
    val refMs = (System.nanoTime() - refStart) / 1e6

    val stages = new StageListener
    val plans = new PlanListener
    ds.sparkSession.sparkContext.addSparkListener(stages)
    ds.sparkSession.listenerManager.register(plans)
    val jobsBefore = stages.jobsSeen
    val tracedStart = System.nanoTime()
    val (idx, collectMs) = tracer.span("index.build", "build-0") {
      val df = tracer.span("index.plan", "build-0")(OfflineIndexer.build(ds, Cfg))
      val res = tracer.timed("index.collect", "build-0")(OfflineIndexer.collectIndex(df))
      stages.awaitJobs(jobsBefore + 1)
      for (s <- stages.completedStages)
        tracer.external(s"spark.stage.${stageKind(s)}", "build-0", s.submittedMs, s.completedMs)
      res
    }
    val all = stages.completedStages
    val map = all.filter(s => s.readsShuffle && s.writesShuffle)
    val reduce = all.filter(s => s.readsShuffle && !s.writesShuffle)
    val mapTasks = new Sample
    mapTasks.addAll(map.flatMap(_.taskRunMs).map(_.toDouble))
    val jobMs = if (all.isEmpty) 0L else all.map(_.completedMs).max - all.map(_.submittedMs).min
    val aggRows = plans.outputRows("HashAggregate") // final (pre-minCov filter), then partial

    val sample = Inputs.sampleIdx(ctx.seed, idx.size, SampledPatterns).map(idx.entries.keys.toVector.sorted)
    val recount = tracer.span("index.recount", "recount")(Recount.run(ds, Cfg, sample.toSet))
    val enumCols = Inputs.sampleIdx(ctx.seed + 1, cols.size, EnumColumns).map(cols)
      .map(c => c.colId -> Inputs.cappedValues(c.values, Cfg))
      .filter { case (_, vs) => Inputs.indexed(vs, Cfg) }
    for ((id, vs) <- enumCols)
      tracer.span("enum.column_counts", id)(Enumerate.columnPatternCounts(vs, Cfg.tau, Cfg.capPerValue))
    val tracedMs = (System.nanoTime() - tracedStart) / 1e6

    r.put("lake.generate_s", tracer.durationsMs("lake.generate").sum / 1000)
    r.put("index.map_task_s", mapTasks.sum / 1000)
    r.put("index.map_task_max_over_median",
      if (mapTasks.n == 0) 0.0 else mapTasks.max / Stats.percentile(mapTasks.sorted, 50))
    r.put("index.evidence_rows", recount.keptRows.toDouble)
    r.put("index.shuffle_bytes", map.map(_.shuffleWriteBytes).sum.toDouble)
    r.put("index.reduce_task_s", reduce.flatMap(_.taskRunMs).sum / 1000.0)
    r.put("index.collect_s", math.max(0.0, collectMs - jobMs) / 1000)
    r.put("index.entries", idx.size.toDouble)
    r.put("index.entries_kept_frac", aggRows.headOption.map(n => idx.size.toDouble / n).getOrElse(0.0))
    r.pct("enum.column_counts_ms_p50", tracer.durationsMs("enum.column_counts"), 50)
    r.pct("enum.column_counts_ms_p95", tracer.durationsMs("enum.column_counts"), 95)
    r.put("enum.column_pairs", recount.pairs.toDouble)
    r.put("enum.pairs_kept_frac", if (recount.pairs == 0) 0.0 else recount.keptRows.toDouble / recount.pairs)
    r.put("trace.overhead_frac", tracedMs / refMs - 1)
    r.record ++= Seq("index_entries" -> idx.size, "patterns_before_min_cov" -> aggRows.headOption.getOrElse(0L),
      "partial_aggregate_rows" -> aggRows.lift(1).getOrElse(0L), "map_tasks" -> mapTasks.n,
      "stages" -> all.map(s => s"${s.stageId}:${stageKind(s)}"), "indexed_columns" -> recount.indexedColumns,
      "reference_build_ms" -> refMs, "traced_phase_ms" -> tracedMs)

    r.op(invariantFailure(idx))
    val bad = sample.filterNot { k =>
      val got = recount.sampled.getOrElse(k, Vector.empty)
      idx.lookup(k).exists(s => s.cov == got.size && math.abs(s.fpr - got.sum / got.size) <= 1e-9)
    }
    println(s"index_build trace: ${idx.size} entries; ${sample.size} sampled patterns recounted, ${bad.size} differ")
    r.op(if (bad.isEmpty) None else Some(s"${bad.size} sampled patterns differ from the full-corpus recount"))
  }

  private def stageKind(s: StageListener.StageRecord): String =
    if (s.readsShuffle && s.writesShuffle) "map"
    else if (s.readsShuffle) "reduce"
    else if (s.writesShuffle) "scan"
    else "other"
}

/** Full-corpus recount on the executors: (column, pattern) pairs before and
  * after the per-column coverage filter, and the local impurities of a
  * sample of patterns.
  */
object Recount {

  final case class Totals(
      indexedColumns: Long, pairs: Long, keptRows: Long, sampled: Map[String, Vector[Double]])

  def run(ds: Dataset[LakeColumn], cfg: IndexConfig, sample: Set[String]): Totals = {
    val bc = ds.sparkSession.sparkContext.broadcast(sample)
    val parts = ds.rdd.mapPartitions { it =>
      var indexed, pairs, kept = 0L
      val hits = mutable.ArrayBuffer.empty[(String, Double)]
      it.foreach { c =>
        val e = Inputs.evidence(c.values, cfg)
        if (e.enumerated) indexed += 1
        pairs += e.pairs
        kept += e.kept.size
        e.kept.foreach { case (k, imp) => if (bc.value.contains(k)) hits += ((k, imp)) }
      }
      Iterator((indexed, pairs, kept, hits.toVector))
    }.collect()
    Totals(parts.map(_._1).sum, parts.map(_._2).sum, parts.map(_._3).sum,
      parts.toVector.flatMap(_._4).groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2) })
  }
}

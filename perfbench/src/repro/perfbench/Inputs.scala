package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.util.Random
import repro.core.Tokens
import repro.index.OfflineIndexer.IndexConfig
import repro.core.Enumerate
import repro.lake.{Benchmark, Domains, LakeColumn, LakeGen}
import repro.lake.Benchmark.BenchCase

/** The benchmark's inputs, all made from a seed.
  *
  *  - The lake: `LakeGen.Enterprise` (T_E, ~1.6K columns) with the seed as
  *    its lake seed.
  *  - The query columns: a B_E-config benchmark (`Benchmark.EnterpriseBench`)
  *    with the seed as its bench seed, from which [[QueryColumns]] patterned
  *    cases are drawn per domain. Each machine-generated domain gets a
  *    popularity-proportional share, except that a *wide* domain — one whose
  *    values exceed τ tokens, so that FMDV-VH must fall back to the FMDV-V
  *    segmentation DP — gets exactly one column: its first case whose
  *    conforming values cover ≥ (1-θ) of the train prefix, so that FMDV-VH
  *    does run the DP on it (a dirtier case is rejected before the DP).
  *    Such a column costs seconds to learn, not milliseconds; one per pass
  *    keeps the DP tail in every run while the pass still fits the run
  *    budget, and a fixed domain mix keeps the per-pass cost steady.
  */
object Inputs {

  val QueryColumns = 400
  private val PoolCases = 2500

  def lakeConfig(seed: Long): LakeGen.LakeConfig = LakeGen.Enterprise.copy(seed = seed)

  def lake(seed: Long): Vector[LakeColumn] = LakeGen.generateColumns(lakeConfig(seed))

  /** The largest group of a column's non-empty values by merged token
    * signature: the values FMDV-VH hands to the FMDV-V DP.
    */
  def dominantGroup(values: Seq[String]): Seq[String] = {
    val nonEmpty = values.filter(v => v != null && v.nonEmpty)
    if (nonEmpty.isEmpty) Nil
    else nonEmpty.groupBy(Tokens.signatureMergedKey).values.toVector.sortBy(g => (-g.size, g.head)).head
  }

  /** Whether FMDV-VH's DP fallback would run on this train prefix. */
  def reachesDp(train: Seq[String], theta: Double): Boolean =
    dominantGroup(train).size >= math.ceil((1 - theta) * train.count(_ != null))

  /** True when most of a column's values are wider than τ at both
    * granularities (they have no full-column pattern).
    */
  def isWide(values: Seq[String], tau: Int): Boolean =
    values.count(v => Tokens.effectiveTokenCount(v) > tau) * 2 > values.size

  /** Per-domain column counts for the query set (largest-remainder rounding
    * of popularity shares; ties by name).
    */
  def quotas(wide: Set[String]): Map[String, Int] = {
    val narrow = Domains.machineGenerated.filterNot(d => wide.contains(d.name))
    val slots = QueryColumns - wide.size
    val total = narrow.map(_.popularity).sum.toDouble
    val exact = narrow.map(d => d.name -> slots * d.popularity / total)
    val floors = exact.map { case (n, x) => n -> x.toInt }.toMap
    val left = slots - floors.values.sum
    val bump = exact.sortBy { case (n, x) => (-(x - x.toInt), n) }.take(left).map(_._1).toSet
    floors.map { case (n, k) => n -> (k + (if (bump(n)) 1 else 0)) } ++ wide.map(_ -> 1)
  }

  /** The query columns for a bench seed, in a seeded closed-loop order. */
  def queryColumns(seed: Long, tau: Int = Enumerate.DefaultTau, theta: Double = 0.10): Vector[BenchCase] = {
    def pool(n: Int) = Benchmark.generate(Benchmark.EnterpriseBench.copy(seed = seed, nCases = n))
      .filterNot(_.isNL).groupBy(_.domain)
    def plan(n: Int) = {
      val byDomain = pool(n)
      val wide = byDomain.collect { case (d, cs) if isWide(cs.head.values, tau) => d }.toSet
      (byDomain, quotas(wide))
    }
    def eligible(byDomain: Map[String, Vector[BenchCase]], d: String): Vector[BenchCase] = {
      val cs = byDomain.getOrElse(d, Vector.empty)
      if (cs.nonEmpty && isWide(cs.head.values, tau)) cs.filter(c => reachesDp(c.train(), theta)) else cs
    }
    def short(p: (Map[String, Vector[BenchCase]], Map[String, Int])) =
      p._2.exists { case (d, k) => eligible(p._1, d).size < k }
    val (byDomain, quota) = Iterator.iterate(PoolCases)(_ * 2).map(plan).find(p => !short(p)).get
    val chosen = quota.toVector.sortBy(_._1).flatMap { case (d, k) => eligible(byDomain, d).take(k) }
    new Random(seed).shuffle(chosen)
  }

  /** Seeded sample of `k` distinct indices out of `n`. */
  def sampleIdx(seed: Long, n: Int, k: Int): Vector[Int] =
    new Random(seed).shuffle((0 until n).toVector).take(math.min(k, n)).sorted

  private def sha256(parts: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    parts.foreach { p => md.update(p.getBytes(StandardCharsets.UTF_8)); md.update(0.toByte) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  def lakeDigest(cols: Seq[LakeColumn]): String =
    sha256(cols.iterator.flatMap(c =>
      Iterator(c.corpus, c.tableId, c.colId, c.name, c.domain) ++ c.values.iterator))

  def casesDigest(cases: Seq[BenchCase]): String =
    sha256(cases.iterator.flatMap(c =>
      Iterator(c.id, c.domain, c.noiseIdx.toSeq.sorted.mkString(",")) ++ c.values.iterator))

  /** Local evidence of one corpus column as Definition 3 and the offline
    * indexer define it: the patterns of P(D) covering at least
    * `minColCoverage` of D's (capped) values, with impurity 1 - count/|D|.
    * `pairs` counts every (column, pattern) count before that filter.
    * Columns the indexer skips (empty, or mostly wider than τ) yield nothing.
    */
  final case class ColumnEvidence(enumerated: Boolean, pairs: Long, kept: Vector[(String, Double)])

  def evidence(values: Seq[String], cfg: IndexConfig): ColumnEvidence = {
    val vs = cappedValues(values, cfg)
    if (!indexed(vs, cfg)) ColumnEvidence(false, 0L, Vector.empty)
    else {
      val n = vs.size.toDouble
      val minCnt = math.max(1.0, cfg.minColCoverage * n)
      val counts = Enumerate.columnPatternCounts(vs, cfg.tau, cfg.capPerValue)
      ColumnEvidence(true, counts.size.toLong,
        counts.iterator.collect { case (k, c) if c >= minCnt => (k, 1.0 - c / n) }.toVector)
    }
  }

  /** The values the indexer reads from a column. */
  def cappedValues(values: Seq[String], cfg: IndexConfig): Vector[String] =
    values.iterator.filter(v => v != null && v.nonEmpty).take(cfg.maxValues).toVector

  /** Whether the indexer enumerates a column with these (capped) values. */
  def indexed(vs: Vector[String], cfg: IndexConfig): Boolean =
    vs.nonEmpty && vs.count(v => Tokens.effectiveTokenCount(v) <= cfg.tau) >= cfg.minEnumerable * vs.size
}

package repro.perfbench

import scala.collection.mutable
import repro.perfbench.Stats.{Sample, Support}

/** The metrics a run reports, declared once with their units.
  *
  * An untraced run reports exactly [[Metrics.EndToEnd]]; a traced run reports
  * exactly [[Metrics.PerLayer]]. Every workload reports every name: a layer
  * that a workload bypasses reads 0 there, and its sample count in the run
  * record is 0.
  */
object Metrics {

  val NamePattern = "[A-Za-z0-9_.-]+"

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "heap_mb" -> "MB",
    "op_ms_p50" -> "ms",
    "op_ms_tail" -> "ms",
    "work_per_s" -> "1/s")

  val PerLayer: Seq[(String, String)] = Seq(
    "lake.generate_s" -> "s",
    "index.map_task_s" -> "s",
    "index.map_task_max_over_median" -> "ratio",
    "index.evidence_rows" -> "count",
    "index.shuffle_bytes" -> "bytes",
    "index.reduce_task_s" -> "s",
    "index.collect_s" -> "s",
    "index.entries" -> "count",
    "index.entries_kept_frac" -> "ratio",
    "enum.column_counts_ms_p50" -> "ms",
    "enum.column_counts_ms_p95" -> "ms",
    "enum.column_pairs" -> "count",
    "enum.pairs_kept_frac" -> "ratio",
    "fmdv_h.solve_ms_p50" -> "ms",
    "fmdv_h.solve_ms_p95" -> "ms",
    "enum.column_counts_train_ms_p50" -> "ms",
    "enum.column_counts_train_ms_p95" -> "ms",
    "enum.pv_size_p50" -> "count",
    "enum.pv_size_p95" -> "count",
    "fmdv_h.candidates_p50" -> "count",
    "fmdv_h.candidates_p95" -> "count",
    "lookup.calls" -> "count",
    "lookup.hit_frac" -> "ratio",
    "fmdv.best_ms_p50" -> "ms",
    "fmdv.best_ms_p95" -> "ms",
    "msa.align_ms_p50" -> "ms",
    "msa.align_ms_p95" -> "ms",
    "msa.profile_len_p50" -> "count",
    "msa.profile_len_p95" -> "count",
    "vh.fallback_frac" -> "ratio",
    "fmdv_v.solve_ms_p50" -> "ms",
    "fmdv_v.solve_ms_p95" -> "ms",
    "fmdv_v.solve_ms_max" -> "ms",
    "fmdv_v.dp_self_ms_p95" -> "ms",
    "match.values" -> "count",
    "match.ns_per_value_p50" -> "ns",
    "match.ns_per_value_p99" -> "ns",
    "match.nonconf_frac" -> "ratio",
    "rule.flags_ms_p50" -> "ms",
    "rule.flags_ms_p99" -> "ms",
    "stats.fisher_calls" -> "count",
    "stats.fisher_us_p50" -> "us",
    "stats.fisher_us_p99" -> "us",
    "validate.alarm_frac" -> "ratio",
    "trace.overhead_frac" -> "ratio")

  def declared(traced: Boolean): Seq[(String, String)] = if (traced) PerLayer else EndToEnd
}

/** Collects one run's metrics, the support of each percentile, and the
  * run-record fields; renders the result line.
  */
final class Report(traced: Boolean) {
  private val units: Map[String, String] = Metrics.declared(traced).toMap
  private val values = mutable.LinkedHashMap.empty[String, Double]
  val supports: mutable.ArrayBuffer[Support] = mutable.ArrayBuffer.empty
  val record: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap.empty
  var attempted = 0L
  var failed = 0L
  private val checkFailures = mutable.ArrayBuffer.empty[String]

  def put(name: String, value: Double): Unit = {
    require(units.contains(name), s"metric $name is not declared for traced=$traced")
    values(name) = value
  }

  /** Report percentile `q` of `sample` under `name`. */
  def pct(name: String, sample: Sample, q: Double): Unit = {
    put(name, Stats.percentile(sample.sorted, q))
    supports += Support(name, q, sample.n)
  }

  /** Report 0 for every declared metric not measured (layers the workload
    * bypasses); returns their names.
    */
  def zeroUnmeasured(): Seq[String] = {
    val rest = Metrics.declared(traced).map(_._1).filterNot(values.contains)
    rest.foreach(put(_, 0.0))
    rest
  }

  /** Count one operation; a failure reason marks it failed. */
  def op(failure: Option[String]): Unit = {
    attempted += 1
    failure.foreach { why => failed += 1; if (checkFailures.size < 20) checkFailures += why }
  }

  /** A failed end-of-run check: the run is reported as incorrect. */
  def checkFailed(what: String): Unit = checkFailures += what

  def correct: Boolean = failed == 0 && checkFailures.isEmpty

  /** The result line: exactly `correct`, `attempted`, `failed`, `metrics`. */
  def resultJson: String = {
    val missing = units.keySet -- values.keySet
    require(missing.isEmpty, s"metrics not measured: ${missing.toSeq.sorted.mkString(", ")}")
    val ms = Metrics.declared(traced).map { case (name, unit) =>
      s"${Json.str(name)}: {\"value\": ${Json.num(values(name))}, \"unit\": ${Json.str(unit)}}"
    }
    s"""{"correct": $correct, "attempted": ${math.max(1L, attempted)}, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def recordJson: String = {
    val sup = supports.map { s =>
      Json.obj(Seq("metric" -> s.metric, "percentile" -> s.q, "samples" -> s.n,
        "samples_beyond" -> s.samplesBeyond, "too_small" -> s.tooSmall,
        "highest_supported" -> Stats.highestSupported(s.n).fold("none")(q => s"p${Json.num(q)}")))
    }
    Json.obj(record.toSeq :+ ("percentile_samples" -> Json.Raw(sup.mkString("[", ", ", "]"))) :+
      ("check_failures" -> Json.Raw(checkFailures.map(Json.str).mkString("[", ", ", "]"))))
  }
}

/** Minimal JSON rendering for the result and record lines. */
object Json {
  final case class Raw(text: String)

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').result()
  }

  /** A finite number with all its digits (non-finite values become 0). */
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "0"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  def value(v: Any): String = v match {
    case Raw(t) => t
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other => str(String.valueOf(other))
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}

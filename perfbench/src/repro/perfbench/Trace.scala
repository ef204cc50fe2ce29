package repro.perfbench

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.util.zip.GZIPOutputStream
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import repro.index.PatternStats
import repro.perfbench.Stats.Sample

/** In-memory span log of a traced run.
  *
  * A span is (name, request id, start, end, parent span). Spans are recorded
  * by the benchmark around its own calls into each layer; one request id per
  * query column or batch. Nothing is written until [[writeTo]] at exit.
  * Single-threaded: the traced passes run on one thread.
  */
final class Tracer {
  private val names = ArrayBuffer.empty[String]
  private val ids = ArrayBuffer.empty[String]
  private val parents = ArrayBuffer.empty[Int]
  private val starts = ArrayBuffer.empty[Long]
  private val ends = ArrayBuffer.empty[Long]
  private var open: List[Int] = Nil
  private val baseNanos = System.nanoTime()
  private val baseEpochMs = System.currentTimeMillis()

  /** Run `body` inside a span that is a child of the innermost open span. */
  def span[A](name: String, id: String)(body: => A): A = {
    val i = begin(name, id)
    try body finally end(i)
  }

  /** Like [[span]], also returning the span's duration in ms. */
  def timed[A](name: String, id: String)(body: => A): (A, Double) = {
    val i = begin(name, id)
    val r = try body finally end(i)
    (r, durNanos(i) / 1e6)
  }

  private def begin(name: String, id: String): Int = {
    val i = names.size
    names += name; ids += id; parents += open.headOption.getOrElse(-1)
    starts += System.nanoTime(); ends += -1L
    open = i :: open
    i
  }

  private def end(i: Int): Unit = {
    ends(i) = System.nanoTime()
    open = open.tail
  }

  /** Record a span the caller timed with `System.nanoTime`. */
  def record(name: String, id: String, startNanos: Long, endNanos: Long): Unit = {
    names += name; ids += id; parents += open.headOption.getOrElse(-1)
    starts += startNanos; ends += endNanos
  }

  /** Record a span measured elsewhere (Spark stages, in epoch milliseconds). */
  def external(name: String, id: String, startEpochMs: Long, endEpochMs: Long): Unit = {
    def toNanos(ms: Long) = baseNanos + (ms - baseEpochMs) * 1000000L
    record(name, id, toNanos(startEpochMs), toNanos(endEpochMs))
  }

  def size: Int = names.size

  private def durNanos(i: Int): Long = ends(i) - starts(i)

  /** Durations (ms) of every span with this name. */
  def durationsMs(name: String): Sample = {
    val s = new Sample
    for (i <- names.indices if names(i) == name) s.add(durNanos(i) / 1e6)
    s
  }

  /** Write the spans as gzipped JSON lines; times in microseconds from the
    * tracer's creation.
    */
  def writeTo(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file)), StandardCharsets.UTF_8))
    try {
      for (i <- names.indices) {
        w.write(Json.obj(Seq("span" -> i, "name" -> names(i), "id" -> ids(i), "parent" -> parents(i),
          "start_us" -> (starts(i) - baseNanos) / 1000L, "end_us" -> (ends(i) - baseNanos) / 1000L)))
        w.write('\n')
      }
    } finally w.close()
  }
}

/** Spark stage and task metrics, collected by a listener the benchmark
  * registers on the traced run only.
  */
object StageListener {
  final case class StageRecord(
      stageId: Int, submittedMs: Long, completedMs: Long,
      taskRunMs: Vector[Long], shuffleReadRecords: Long, shuffleWriteRecords: Long,
      shuffleWriteBytes: Long) {
    def readsShuffle: Boolean = shuffleReadRecords > 0
    def writesShuffle: Boolean = shuffleWriteRecords > 0
  }
}

final class StageListener extends SparkListener {
  import StageListener.StageRecord

  private val tasks = mutable.HashMap.empty[Int, ArrayBuffer[Long]]
  private val stages = ArrayBuffer.empty[StageRecord]
  private var jobsEnded = 0

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null)
      tasks.getOrElseUpdate(e.stageId, ArrayBuffer.empty) += e.taskMetrics.executorRunTime
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    val m = si.taskMetrics
    stages += StageRecord(si.stageId,
      si.submissionTime.getOrElse(0L), si.completionTime.getOrElse(0L),
      tasks.getOrElse(si.stageId, ArrayBuffer.empty[Long]).toVector,
      if (m == null) 0L else m.shuffleReadMetrics.recordsRead,
      if (m == null) 0L else m.shuffleWriteMetrics.recordsWritten,
      if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsEnded += 1 }

  def jobsSeen: Int = synchronized(jobsEnded)

  def completedStages: Vector[StageRecord] = synchronized(stages.toVector.sortBy(_.stageId))

  /** Listener events arrive asynchronously: wait until `jobs` jobs ended. */
  def awaitJobs(jobs: Int, timeoutMs: Long = 30000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (jobsSeen < jobs && System.currentTimeMillis() < deadline) Thread.sleep(5)
  }
}

/** Captures the executed plan of each successful Spark SQL action, so the
  * traced run can read row counts of plan nodes (e.g. aggregate output rows
  * before the `minCov` filter).
  */
final class PlanListener extends QueryExecutionListener {
  private val seen = ArrayBuffer.empty[QueryExecution]
  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    synchronized(seen += qe)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
  def executions: Vector[QueryExecution] = synchronized(seen.toVector)

  /** `numOutputRows` of every node with this name in the last execution, in
    * pre-order (the root side first).
    */
  def outputRows(nodeName: String, timeoutMs: Long = 30000L): Vector[Long] = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (executions.isEmpty && System.currentTimeMillis() < deadline) Thread.sleep(5)
    executions.lastOption.toVector.flatMap { qe =>
      qe.executedPlan.collect {
        case p if p.nodeName == nodeName && p.metrics.contains("numOutputRows") =>
          p.metrics("numOutputRows").value
      }
    }
  }
}

/** An index map that counts lookups and hits; traced runs build the
  * [[repro.index.PatternIndex]] over it to see every lookup a solver makes.
  */
final class CountingMap(underlying: Map[String, PatternStats])
    extends scala.collection.immutable.AbstractMap[String, PatternStats] {
  var calls = 0L
  var hits = 0L
  def get(key: String): Option[PatternStats] = {
    calls += 1
    val r = underlying.get(key)
    if (r.isDefined) hits += 1
    r
  }
  def iterator: Iterator[(String, PatternStats)] = underlying.iterator
  def removed(key: String): Map[String, PatternStats] = underlying.removed(key)
  def updated[V1 >: PatternStats](key: String, value: V1): Map[String, V1] = underlying.updated(key, value)
  override def size: Int = underlying.size
}

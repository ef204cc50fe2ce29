package repro.perfbench

import java.io.{BufferedInputStream, BufferedOutputStream, File, FileInputStream, FileOutputStream,
  ObjectInputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.index.{OfflineIndexer, PatternIndex}
import repro.lake.LakeGen

/** Everything one workload run needs. `sp` wraps a call into a layer in a
  * span when the run is traced and is a plain call otherwise. Only
  * `index_build` starts Spark.
  */
final case class Ctx(
    workload: String,
    seed: Long,
    seconds: Int,
    spark: Option[SparkSession],
    report: Report,
    tracer: Option[Tracer],
    indexPath: String) {

  def traced: Boolean = tracer.isDefined

  def sp[A](name: String, id: String)(body: => A): A = tracer match {
    case Some(t) => t.span(name, id)(body)
    case None => body
  }

  /** Marks the end of set-up: `setup_s` runs from JVM start to here, and
    * `heap_mb` is the heap in use after a forced GC.
    */
  def setupDone(): Unit = if (!traced) {
    val setupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    report.put("setup_s", setupS)
    report.put("heap_mb", Main.usedHeapMb())
  }
}

/** Entry point of the benchmark JVM.
  *
  * {{{
  *   Main run --workload <w> --seed <n> --seconds <s> --trace <0|1> --index <dir> --trace-dir <dir>
  *   Main prepare-index --index <dir>
  *   Main selftest
  * }}}
  * `run` prints human-readable lines, then `RECORD <json>` (the run record)
  * and `RESULT <json>` (the result line) on standard output.
  */
object Main {

  /** Fixed Spark layout: FPR bits depend on the partition count, so it is
    * part of the benchmark definition and recorded with every result.
    */
  val MaxCores = 4
  val Partitions = 8
  val ShufflePartitions = 8

  /** The online workloads' corpus: T_E at the paper's lake seed. */
  val OnlineLakeSeed: Long = LakeGen.Enterprise.seed

  val Workloads = Seq("index_build", "learn_rules", "validate_batches")

  def cores: Int = math.min(MaxCores, Runtime.getRuntime.availableProcessors)

  def usedHeapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.default.parallelism", Partitions.toLong)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def opts(args: Seq[String]): Map[String, String] =
    args.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap

  def main(args: Array[String]): Unit = args.toSeq match {
    case "run" +: rest => run(opts(rest))
    case "prepare-index" +: rest => prepareIndex(opts(rest)("index"))
    case Seq("selftest") => SelfTest.run()
    case _ =>
      System.err.println("usage: Main run|prepare-index|selftest [--key value ...]")
      sys.exit(2)
  }

  /** Build the online workloads' T_E index once and persist the collected
    * [[PatternIndex]] (Java serialization).
    */
  def prepareIndex(path: String): Unit = {
    val spark = session()
    try {
      import spark.implicits._
      val ds = spark.createDataset(Inputs.lake(OnlineLakeSeed)).repartition(Partitions)
      val index = OfflineIndexer.collectIndex(OfflineIndexer.build(ds, IndexBuild.Cfg))
      val out = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(path)))
      try out.writeObject(index) finally out.close()
    } finally spark.stop()
  }

  def loadIndex(path: String): PatternIndex = {
    val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(path)))
    try in.readObject().asInstanceOf[PatternIndex] finally in.close()
  }

  private def run(o: Map[String, String]): Unit = {
    val workload = o("workload")
    require(Workloads.contains(workload), s"unknown workload $workload")
    val traced = o("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = o("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val spark = if (workload == "index_build") Some(session()) else None
    try {
      val report = new Report(traced)
      val tracer = if (traced) Some(new Tracer) else None
      val ctx = Ctx(workload, o("seed").toLong, seconds, spark, report, tracer, o("index"))
      val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      report.record ++= Seq(
        "workload" -> workload, "seed" -> ctx.seed, "seconds" -> seconds, "traced" -> traced,
        "nproc" -> Runtime.getRuntime.availableProcessors, "spark_master" -> spark.fold("(not started)")(_.sparkContext.master),
        "partitions" -> Partitions, "shuffle_partitions" -> ShufflePartitions,
        "xmx" -> jvmArgs.find(_.startsWith("-Xmx")).getOrElse("(default)"),
        "gc" -> jvmArgs.find(_.endsWith("GC")).getOrElse("(default)"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark_version" -> spark.fold("(not started)")(_.version),
        "git_commit" -> o.getOrElse("git-commit", "unavailable"),
        "source_sha256" -> o.getOrElse("source-digest", "unavailable"))
      workload match {
        case "index_build" => IndexBuild.run(ctx)
        case "learn_rules" => Online.learnRules(ctx)
        case "validate_batches" => Online.validateBatches(ctx)
      }
      if (traced) report.record("bypassed_metrics") = report.zeroUnmeasured()
      for (t <- tracer; dir <- o.get("trace-dir")) {
        val f = new File(dir, s"$workload-seed${ctx.seed}.jsonl.gz")
        t.writeTo(f)
        report.record("trace_file") = f.getPath
        report.record("spans") = t.size
      }
      println("RECORD " + report.recordJson)
      println("RESULT " + report.resultJson)
    } finally spark.foreach(_.stop())
  }
}

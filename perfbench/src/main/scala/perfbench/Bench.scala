package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Paths
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** One call as one pass made it. `wallS` is from the monotonic clock,
  * `startMs`/`endMs` from the epoch clock the Spark listener also uses;
  * `gcS` is the collector time inside the call.
  */
final case class Sample(
    call: Call,
    pass: Int,
    traced: Boolean,
    wallS: Double,
    startMs: Long,
    endMs: Long,
    gcS: Double,
    done: Option[Done],
    ok: Boolean,
) {
  def group: String = Bench.group(pass, call.name)
}

/** Runs one workload: set-up, warm-up, timed passes, and with `--trace 1`
  * a listener-traced run plus direct layer probes. Prints a report and,
  * as the last line, one JSON object with the metrics.
  */
object Bench {
  val SetupReps = 3
  val WarmupPasses = 3
  val ShufflePartitions = 4

  def group(pass: Int, call: String): String = s"pass-$pass/$call"

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
  }

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val opts = parse(args)
    val wl = Workloads.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      // The status store keeps up to 1000 jobs and SQL executions for a UI
      // that is off. A run makes thousands, and the store's upkeep made
      // each pass slower than the one before.
      .config("spark.ui.retainedJobs", 100L)
      .config("spark.ui.retainedStages", 100L)
      .config("spark.sql.ui.retainedExecutions", 50L)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val status =
      try { new Bench(spark, wl, opts, cores, (System.currentTimeMillis() - jvmStartMs) / 1e3).run(); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(status)
  }

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toIndexedSeq.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest of p99/p95/p90/p75 with at least ten samples beyond it, if any. */
  def tail(xs: Seq[Double]): Option[(Int, Double)] =
    Seq(99, 95, 90, 75).find(p => xs.size * (100 - p) >= 1000).map { p =>
      val s = xs.sorted
      p -> s(math.ceil(p / 100.0 * s.size).toInt - 1)
    }

  /** Time of one pass: the sum over calls of each call's median wall
    * time. Over one pass's samples it is that pass's time.
    */
  def passSeconds(samples: Seq[Sample]): Double =
    samples.filter(_.ok).groupBy(_.call.name).values.map(ss => median(ss.map(_.wallS))).sum

  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Heap in use right after the latest collection of each heap pool, in
    * MB. After a full collection it is the live heap; objects allocated
    * since, by this or any other thread, are not in it.
    */
  private def liveHeapMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
      .map(_.getCollectionUsage.getUsed)
      .sum / (1024.0 * 1024.0)
}

final class Bench(spark: SparkSession, wl: Workload, opts: Bench.Opts, cores: Int, sessionS: Double) {
  import Bench._

  private type Metrics = Seq[(String, (Double, String))]

  private val sc = spark.sparkContext
  private val attempted = new AtomicInteger
  private val failed = new AtomicInteger
  private val passes = new AtomicInteger
  private val report = new StringBuilder
  private def say(s: String): Unit = { report ++= s; report += '\n' }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(): Unit = {
    val (calls, g, inputS, refS) = setup()
    say(f"workload ${wl.name} seed ${opts.seed}: ${g.vertices.size} vertices, ${g.pairs.size} edges, " +
      f"local[$cores], $ShufflePartitions shuffle partitions")
    val tw = System.nanoTime()
    warmUp(calls)
    val warmupS = secondsSince(tw)
    val setupS = sessionS + inputS + refS + warmupS
    say(f"set-up: session $sessionS%.3f s, input $inputS%.3f s, reference $refS%.3f s " +
      f"(medians of $SetupReps), warm-up $warmupS%.3f s ($WarmupPasses concurrent passes) -> setup_s $setupS%.3f")

    val (metrics, traceOk) =
      if (opts.trace)
        traced(calls, g, Seq("setup.session_s" -> sessionS, "setup.input_s" -> inputS,
          "setup.reference_s" -> refS, "setup.warmup_s" -> warmupS))
      else (untraced(calls, setupS), true)
    say(s"ops ${attempted.get}, failed_ops ${failed.get}")
    print(report.toString)
    val json = metrics
      .map { case (name, (value, unit)) => s""""$name": {"value": ${num(value)}, "unit": "$unit"}""" }
      .mkString(", ")
    println(s"""{"correct": ${failed.get == 0 && traceOk}, "attempted": ${attempted.get}, "failed": ${failed.get}, "metrics": {$json}}""")
  }

  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "0.0" else x.toString

  /** Set-up, `SetupReps` times: generate the input, then compute the
    * references. Returns the last set-up and the median times.
    */
  private def setup(): (Seq[Call], Graph, Double, Double) = {
    val reps = (1 to SetupReps).map { i =>
      val before = sc.getPersistentRDDs.keySet
      val t0 = System.nanoTime()
      val g = wl.input(spark, opts.seed)
      val inputS = secondsSince(t0)
      val t1 = System.nanoTime()
      val calls = wl.calls(spark, g, opts.seed)
      val refS = secondsSince(t1)
      if (i < SetupReps) (sc.getPersistentRDDs -- before).values.foreach(_.unpersist(blocking = true))
      (calls, g, inputS, refS)
    }
    val (calls, g, _, _) = reps.last
    (calls, g, median(reps.map(_._3)), median(reps.map(_._4)))
  }

  /** The warm-up passes run at once, one thread each, so the JIT and
    * Spark's caches see `WarmupPasses` passes' worth of calls in little
    * more than one pass's time. Concurrent passes must not clear the SQL
    * cache under each other; it is cleared once they are all done.
    */
  private def warmUp(calls: Seq[Call]): Unit = {
    val threads = (1 to WarmupPasses).map(_ => new Thread(() => { pass(calls, traced = false, clearCache = false); () }))
    threads.foreach(_.start())
    threads.foreach(_.join())
    spark.catalog.clearCache()
    Yardstick.jobSeconds(spark)
  }

  /** One pass over the workload's calls. Each output is checked right
    * after its call, outside the timed interval, then (with `clearCache`)
    * the SQL cache is cleared so results a call leaves cached cannot slow
    * later calls.
    */
  private def pass(calls: Seq[Call], traced: Boolean, clearCache: Boolean = true): Seq[Sample] = {
    val passNo = passes.incrementAndGet()
    calls.map { c =>
      sc.setJobGroup(group(passNo, c.name), c.name, interruptOnCancel = false)
      val gc0 = gcSeconds
      val ms0 = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val done =
        try Some(c.run())
        catch { case e: Exception => System.err.println(s"${c.name} failed: $e"); None }
      val wall = secondsSince(t0)
      val ms1 = System.currentTimeMillis()
      val gc = gcSeconds - gc0
      sc.setJobGroup(group(passNo, s"check-${c.name}"), "check", interruptOnCancel = false)
      val ok = done.exists { d =>
        try d.check()
        catch { case e: Exception => System.err.println(s"${c.name} check failed: $e"); false }
      }
      sc.clearJobGroup()
      if (clearCache) spark.catalog.clearCache()
      attempted.incrementAndGet()
      if (!ok) { failed.incrementAndGet(); System.err.println(s"${c.name}: output differs from the reference") }
      Sample(c, passNo, traced, wall, ms0, ms1, gc, done, ok)
    }
  }

  /** What a timed window measured: the samples, the largest live heap in
    * MB, and the median time of one yardstick job.
    */
  private final case class Window(samples: Seq[Sample], liveMb: Double, yardstickS: Double)

  /** Passes from `next` until `--seconds` have gone by, at least one.
    * After each pass, outside the timed calls, the yardstick runs and then
    * a full collection (the heap still in use is that pass's live heap).
    * The yardstick goes first: the collection sets Spark's cleaner to
    * remove the pass's shuffles and blocks, which would run alongside it.
    */
  private def timedWindow(next: () => Seq[Sample]): Window = {
    val t0 = System.nanoTime()
    val out = Seq.newBuilder[Sample]
    val yard = Seq.newBuilder[Double]
    var liveMb = 0.0
    var first = true
    while (first || secondsSince(t0) < opts.seconds) {
      out ++= next()
      yard ++= Yardstick.jobSeconds(spark)
      System.gc()
      liveMb = math.max(liveMb, liveHeapMb)
      first = false
    }
    val w = Window(out.result(), liveMb, median(yard.result()))
    say(f"timed window: ${w.samples.map(_.pass).distinct.size} passes in ${secondsSince(t0)}%.1f s; " +
      f"peak live heap $liveMb%.1f MB; yardstick ${w.yardstickS}%.4f s per job (median of ${yard.result().size})")
    w
  }

  /** Timed passes, tracing off: the end-to-end metrics. Pass and call
    * times are divided by the time of one yardstick job in the same run.
    */
  private def untraced(calls: Seq[Call], setupS: Double): Metrics = {
    val Window(samples, liveMb, yardS) = timedWindow(() => pass(calls, traced = false))
    val byPass = samples.groupBy(_.pass).toSeq.sortBy(_._1).map(_._2)
    val medians = calls.map(c => median(samples.filter(s => s.call == c && s.ok).map(_.wallS)))
    val passS = medians.sum
    val geoS = math.exp(medians.map(math.log).sum / medians.size)
    say(s"  pass sums: ${byPass.map(p => f"${passSeconds(p)}%.3f").mkString(" ")}")
    say(f"  pass_s     $passS%.4f s (sum of the call medians)" + tailText(byPass.map(passSeconds)) + s"  n=${byPass.size}")
    calls.foreach { c =>
      val ws = samples.filter(s => s.call == c && s.ok).map(_.wallS)
      say(f"  ${c.name}%-16s median ${median(ws)}%.4f s" + tailText(ws) + s"  n=${ws.size}: " + ws.map(w => f"$w%.3f").mkString(" "))
    }
    say(f"  pass_rel   ${passS / yardS}%.4f, call_geomean_rel ${geoS / yardS}%.4f (times / yardstick job ${yardS}%.4f s)")
    Seq(
      "setup_s" -> (setupS, "s"),
      "pass_rel" -> (passS / yardS, "ratio"),
      "call_geomean_rel" -> (geoS / yardS, "ratio"),
      "peak_heap_mb" -> (liveMb, "MB"),
    )
  }

  private def tailText(xs: Seq[Double]): String =
    tail(xs).fold("")(t => f"  p${t._1} ${t._2}%.4f s")

  /** Untraced and traced passes in turn, then the layer probes: the
    * per-layer metrics, and whether the trace's identities held.
    */
  private def traced(calls: Seq[Call], g: Graph, setupParts: Seq[(String, Double)]): (Metrics, Boolean) = {
    val trace = new SparkTrace
    def tracedPass(): Seq[Sample] = {
      ListenerDrain(sc); sc.addSparkListener(trace)
      try pass(calls, traced = true)
      finally { ListenerDrain(sc); sc.removeSparkListener(trace) }
    }
    var n = 0
    val window = timedWindow(() => { n += 1; if (n % 2 == 0) tracedPass() else pass(calls, traced = false) })
    // End on a traced pass, so both kinds have at least one.
    val samples = if (n % 2 == 1) window.samples ++ tracedPass() else window.samples
    val (tr, un) = samples.partition(_.traced)
    val overhead = passSeconds(tr) / passSeconds(un) - 1
    val gcS = median(samples.groupBy(_.pass).values.map(_.map(_.gcS).sum))
    say(f"${tr.map(_.pass).distinct.size} traced and ${un.map(_.pass).distinct.size} untraced passes; " +
      f"trace overhead ${overhead * 100}%.2f%% of pass_s; GC ${gcS * 1e3}%.1f ms per pass inside calls")

    val layer = new LayerReport(trace, tr, say)
    layer.writeSpans(Paths.get("perfbench", "out", s"trace-${wl.name}-seed${opts.seed}.json"))

    val probes = new Probes(spark, g, opts.seed, cores)
    val (solveMs, contractedEdges) = probes.localSolveMs
    val probeVals = Seq(
      "dht.put_ns" -> (probes.dhtPutNs, "ns"),
      "dht.get_ns" -> (probes.dhtGetNs, "ns"),
      "dht.get_ns_parallel" -> (probes.dhtGetNsParallel, "ns"),
      "core.prim_search_us" -> (probes.primSearchUs, "us"),
      "core.pointer_jump_ns" -> (probes.pointerJumpNs, "ns"),
      "ref.local_solve_ms" -> (solveMs, "ms"),
    )
    probes.close()
    say(s"layer probes ($contractedEdges contracted edges in the local solve; checksum ${probes.checksum}):")
    probeVals.foreach { case (n, (v, u)) => say(f"  $n%-22s $v%.3f $u") }

    val metrics = layer.metrics ++
      setupParts.map { case (n, v) => n -> (v, "s") } ++
      probeVals ++
      Seq("jvm.gc_s" -> (gcS, "s"), "trace.overhead_frac" -> (overhead, "fraction"),
        "pass.wall_s" -> (passSeconds(un), "s"), "yardstick.wall_s" -> (window.yardstickS, "s"))
    (metrics, layer.consistent)
  }
}

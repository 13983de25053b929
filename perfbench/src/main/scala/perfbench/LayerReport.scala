package perfbench

import java.nio.file.{Files, Path}
import repro.ampc.CostModel
import scala.collection.mutable

/** Per-layer numbers of the traced passes. Jobs are charged to calls by
  * job group (or SQL execution id), stages to their job; a call's time
  * outside every job is its driver self time.
  */
final class LayerReport(trace: SparkTrace, traced: Seq[Sample], say: String => Unit) {
  import Bench.median
  import LayerReport._

  private val jobs = trace.jobs
  private val groupOf = trace.groupOf
  private val jobsByGroup: Map[String, Seq[JobRec]] =
    jobs.flatMap(j => groupOf(j).map(_ -> j)).groupBy(_._1).map { case (g, js) => g -> js.map(_._2) }
  private val stagesByJob: Map[Int, Seq[StageRec]] = trace.stages.groupBy(_.jobId)

  /** Listener counters of one call in one pass. */
  private final case class Observed(jobs: Int, shuffleStages: Int, shuffleBytes: Long, cpuS: Double, coveredMs: Long, wallMs: Long, inside: Boolean)

  private def observe(group: String, startMs: Long, endMs: Long): Observed = {
    val js = jobsByGroup.getOrElse(group, Nil)
    val ss = js.flatMap(j => stagesByJob.getOrElse(j.id, Nil))
    val iv = js.map(j => (j.startMs, j.endMs))
    Observed(
      js.size,
      ss.count(_.shuffleWriteBytes > 0),
      ss.map(_.shuffleWriteBytes).sum,
      ss.map(_.cpuNs).sum / 1e9,
      Intervals.covered(iv, startMs, endMs),
      endMs - startMs,
      iv.forall { case (a, b) => a >= startMs && b >= a && b <= endMs },
    )
  }

  private val observed: Map[Sample, Observed] = traced.map(s => s -> observe(s.group, s.startMs, s.endMs)).toMap

  /** Jobs the listener saw that belong to no call and no check. */
  private val checkGroups = traced.map(s => Bench.group(s.pass, s"check-${s.call.name}")).toSet
  private val callGroups = traced.map(_.group).toSet
  private val unattributed = jobs.filterNot(j => groupOf(j).exists(g => callGroups(g) || checkGroups(g)))
  private val byExecOnly = jobs.count(j => j.group.isEmpty && groupOf(j).isDefined)

  /** Two identities: every job is charged to a call or a check, and within each
    * call the job-covered time plus driver self time is the call's wall.
    */
  val consistent: Boolean = {
    val callJobs = callGroups.toSeq.map(g => jobsByGroup.getOrElse(g, Nil).size).sum
    val checkJobs = checkGroups.toSeq.map(g => jobsByGroup.getOrElse(g, Nil).size).sum
    val inside = observed.values.forall(_.inside)
    say(s"listener: ${jobs.size} jobs = $callJobs in calls + $checkJobs in output checks + ${unattributed.size} unattributed; " +
      s"$byExecOnly charged through their SQL execution id (no job group); " +
      s"every call's jobs inside its interval: $inside")
    if (byExecOnly > 0) {
      val sites = jobs.filter(_.group.isEmpty).groupBy(_.callSite).map { case (s, js) => s"$s x${js.size}" }
      say(s"  call sites of jobs without a group: ${sites.mkString(", ")}")
    }
    unattributed.isEmpty && inside && callJobs + checkJobs == jobs.size
  }

  private val byCall: Map[String, Seq[Sample]] = traced.filter(_.done.isDefined).groupBy(_.call.name)

  /** Per-call rows of the report, and the per-layer metrics, every call of every workload. */
  val metrics: Seq[(String, (Double, String))] = {
    say("per call, medians over traced passes (jobs as median [min-max]):")
    say(f"  ${"call"}%-16s ${"wall s"}%8s ${"jobs"}%12s ${"shuf obs/decl"}%13s ${"MB obs/decl"}%15s ${"cpu s"}%7s " +
      f"${"self s"}%7s ${"kv q"}%9s ${"hit"}%5s ${"chain"}%6s ${"RDMA s"}%8s ${"TCP s"}%8s ${"MPC s"}%8s ${"ph"}%3s")
    Workloads.allCalls.flatMap { case (name, ampc) =>
      val ss = byCall.getOrElse(name, Nil)
      def med(f: Sample => Double): Double = median(ss.map(f))
      def obs(f: Observed => Double): Double = med(s => f(observed(s)))
      def rm = ss.map(_.done.get.metrics)
      def fromRun(f: repro.ampc.RunMetrics => Double): Double = median(rm.map(f))
      val hitRatio = fromRun(m => if (m.cacheHits + m.kvQueries == 0) 0.0 else m.cacheHits.toDouble / (m.cacheHits + m.kvQueries))
      val jobCounts = ss.map(s => observed(s).jobs)
      val values: Seq[(String, Double)] = Seq(
        "wall_s" -> med(_.wallS),
        "spark_jobs" -> obs(_.jobs.toDouble),
        "spark_jobs_min" -> jobCounts.minOption.getOrElse(0).toDouble,
        "spark_jobs_max" -> jobCounts.maxOption.getOrElse(0).toDouble,
        "spark_shuffle_stages" -> obs(_.shuffleStages.toDouble),
        "spark_shuffle_bytes" -> obs(_.shuffleBytes.toDouble),
        "spark_cpu_s" -> obs(_.cpuS),
        "driver_self_s" -> obs(o => (o.wallMs - o.coveredMs) / 1e3),
        "declared_shuffles" -> fromRun(_.shuffles.toDouble),
        "declared_shuffle_bytes" -> fromRun(_.shuffleBytes.toDouble),
      ) ++ (if (ampc) Seq(
        "kv_queries" -> fromRun(_.kvQueries.toDouble),
        "kv_read_bytes" -> fromRun(_.kvReadBytes.toDouble),
        "chain_depth_max" -> fromRun(_.maxChainDepth.toDouble),
        "modeled_rdma_s" -> fromRun(CostModel.Rdma.seconds),
        "modeled_tcp_s" -> fromRun(CostModel.Tcp.seconds),
      ) ++ (if (Cached(name)) Seq("cache_hit_ratio" -> hitRatio) else Nil)
      else Seq(
        "phases" -> med(_.done.get.phases.toDouble),
        "modeled_mpc_s" -> fromRun(CostModel.Mpc.seconds),
      ))
      if (ss.nonEmpty) {
        val v = values.toMap
        val mb = (x: Double) => x / 1e6
        say(f"  $name%-16s ${v("wall_s")}%8.3f ${f"${v("spark_jobs")}%.0f [${jobCounts.min}-${jobCounts.max}]"}%12s " +
          f"${f"${v("spark_shuffle_stages")}%.0f/${v("declared_shuffles")}%.0f"}%13s " +
          f"${f"${mb(v("spark_shuffle_bytes"))}%.2f/${mb(v("declared_shuffle_bytes"))}%.2f"}%15s " +
          f"${v("spark_cpu_s")}%7.3f ${v("driver_self_s")}%7.3f ${v.getOrElse("kv_queries", 0.0)}%9.0f " +
          f"${v.getOrElse("cache_hit_ratio", 0.0)}%5.3f ${v.getOrElse("chain_depth_max", 0.0)}%6.0f " +
          f"${fromRun(CostModel.Rdma.seconds)}%8.4f ${fromRun(CostModel.Tcp.seconds)}%8.4f ${fromRun(CostModel.Mpc.seconds)}%8.4f " +
          f"${v.getOrElse("phases", 0.0)}%3.0f")
      }
      values.map { case (k, v) => s"$name.$k" -> (v, unitOf(k)) }
    }
  }

  /** Spans of the traced passes: pass, call (or output check), SQL execution, job, stage. */
  def writeSpans(path: Path): Unit = {
    val spans = mutable.ArrayBuffer.empty[Span]
    def add(kind: String, name: String, parent: Int, start: Long, end: Long): Int = {
      spans += Span(spans.size, kind, name, parent, start, end)
      spans.size - 1
    }
    val execs = trace.execs.map(x => x.id -> x).toMap
    traced.groupBy(_.pass).toSeq.sortBy(_._1).foreach { case (p, ss) =>
      val passId = add("pass", s"pass-$p", -1, ss.map(_.startMs).min, ss.map(_.endMs).max)
      ss.foreach { s =>
        val callId = add("call", s.call.name, passId, s.startMs, s.endMs)
        val js = jobsByGroup.getOrElse(s.group, Nil)
        val execIds = mutable.HashMap.empty[Long, Int]
        js.flatMap(_.execId).distinct.flatMap(execs.get).foreach { x =>
          execIds(x.id) = add("sql", x.description, callId, x.startMs, if (x.endMs < 0) s.endMs else x.endMs)
        }
        js.foreach { j =>
          val jobId = add("job", s"${j.id} ${j.callSite}", j.execId.flatMap(execIds.get).getOrElse(callId), j.startMs, j.endMs)
          stagesByJob.getOrElse(j.id, Nil).foreach(st => add("stage", s"${st.id}.${st.attempt}", jobId, st.submitMs, st.endMs))
        }
      }
    }
    val children = spans.groupBy(_.parent)
    val lines = spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(k => (k.start, k.end)).toSeq
      val self = (s.end - s.start) - Intervals.covered(kids, s.start, s.end)
      s"""{"id": ${s.id}, "parent": ${s.parent}, "kind": "${s.kind}", "name": "${esc(s.name)}", """ +
        s""""start_ms": ${s.start}, "end_ms": ${s.end}, "self_ms": $self}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes("UTF-8"))
    say(s"spans: ${spans.size} written to $path")
  }

  private def esc(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => " "
      case c    => c.toString
    }
}

object LayerReport {
  private final case class Span(id: Int, kind: String, name: String, parent: Int, start: Long, end: Long)

  /** Calls that use a result cache; for the others the hit ratio is 0 by construction. */
  val Cached: Set[String] = Set("ampc_mis", "ampc_mm", "ampc_msf")

  def unitOf(metric: String): String =
    if (metric.endsWith("_s")) "s"
    else if (metric.endsWith("_bytes")) "bytes"
    else if (metric.endsWith("_ratio")) "fraction"
    else "count"
}

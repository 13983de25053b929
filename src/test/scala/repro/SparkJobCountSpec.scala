package repro

import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.core.{AmpcConnectivity, AmpcMatching, AmpcMis, AmpcMsf, AmpcTwoCycle, KktMsf, MatchingPhases}
import repro.graphs.GraphGen
import repro.mpc.{LocalContractionCC, MpcMatching, MpcMis, MpcMsf}
import scala.collection.mutable

/** Upper bounds on the Spark jobs one algorithm call runs. At this scale
  * wall clock follows the job count, so a new bookkeeping action shows here.
  */
class SparkJobCountSpec extends SparkSpec {

  /** Records each job's group, and the group of each SQL execution, so a
    * job AQE submits from a pool thread without a group is still charged
    * to the group of the action that started its execution. Also records
    * which job's stages wrote shuffle data: the engine's count of shuffles,
    * and the peak execution memory each task reports.
    */
  private final class JobsByGroup extends SparkListener {
    private val jobs = mutable.HashMap.empty[Int, (Option[String], Option[Long])]
    private val execGroup = mutable.HashMap.empty[Long, String]
    private val stageJob = mutable.HashMap.empty[Int, Int]
    private val shuffleStageJobs = mutable.ArrayBuffer.empty[Int]
    private val taskPeaks = mutable.ArrayBuffer.empty[(Int, Long)]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
      jobs(e.jobId) = (prop("spark.jobGroup.id"), prop("spark.sql.execution.id").map(_.toLong))
      e.stageIds.foreach(stageJob(_) = e.jobId)
    }

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      val wrote = Option(e.stageInfo.taskMetrics).exists(_.shuffleWriteMetrics.bytesWritten > 0)
      if (wrote) shuffleStageJobs ++= stageJob.get(e.stageInfo.stageId)
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      Option(e.taskMetrics).foreach(m => taskPeaks += ((e.stageId, m.peakExecutionMemory)))
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => synchronized(s.jobGroupId.foreach(execGroup(s.executionId) = _))
      case _                                 =>
    }

    private def inGroup(group: String)(job: Int): Boolean = {
      val (g, x) = jobs(job)
      g.orElse(x.flatMap(execGroup.get)).contains(group)
    }

    def count(group: String): Int = synchronized(jobs.keys.count(inGroup(group)))

    def shuffleStages(group: String): Int = synchronized(shuffleStageJobs.count(inGroup(group)))

    def peakExecutionMemory(group: String): Long = synchronized(
      taskPeaks.collect { case (stage, peak) if stageJob.get(stage).exists(inGroup(group)) => peak }.maxOption.getOrElse(0L))
  }

  private final class Seen[T](val result: T, val jobs: Int, val shuffleStages: Int, val peakExecutionMemory: Long)

  private def observe[T](body: => T): Seen[T] = {
    val sc = spark.sparkContext
    val group = "job-count"
    val listener = new JobsByGroup
    ListenerDrain(sc); sc.addSparkListener(listener)
    sc.setJobGroup(group, group)
    val result =
      try body
      finally {
        sc.clearJobGroup()
        ListenerDrain(sc); sc.removeSparkListener(listener)
      }
    new Seen(result, listener.count(group), listener.shuffleStages(group), listener.peakExecutionMemory(group))
  }

  private def jobsOf(body: => Unit): Int = observe(body).jobs

  private val edges = TestGraphs.randomEdges(60, 150, 4)

  /** AMPC MIS, MM and uncached MM: one round each. */
  private lazy val ampcRuns = {
    val df = TestGraphs.toDf(spark, edges)
    Seq(
      "MIS" -> observe(AmpcMis.run(spark, df, 4)),
      "MM" -> observe(AmpcMatching.run(spark, df, 4)),
      "uncached MM" -> observe(AmpcMatching.run(spark, df, 4, caching = false)),
    )
  }

  // An AMPC round is two jobs: the shuffle with the DHT write, then the queries.
  test("AMPC MIS and MM run at most 2 Spark jobs") {
    val over = ampcRuns.collect { case (name, run) if run.jobs > 2 => s"$name: ${run.jobs} jobs" }
    assert(over.isEmpty, over.mkString("; "))
  }

  test("AMPC MIS and MM write shuffle data in one stage") {
    val over = ampcRuns.collect { case (name, run) if run.shuffleStages > 1 => s"$name: ${run.shuffleStages} shuffle stages" }
    assert(over.isEmpty, over.mkString("; "))
  }

  // The adjacency write, the searches with the parent write, and the
  // contraction, which also collects the searches' MSF edges.
  test("AMPC MSF runs at most 3 Spark jobs") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges, 4))
    val msf = jobsOf(AmpcMsf.run(spark, df, 4))
    assert(msf <= 3, s"MSF $msf jobs")
  }

  test("AMPC connectivity runs at most 4 Spark jobs") {
    val cc = jobsOf(AmpcConnectivity.run(spark, TestGraphs.toDf(spark, edges), 4))
    assert(cc <= 4, s"connectivity $cc jobs")
  }

  // One action sizes the input and one each pruned graph, and each phase's
  // round runs two.
  test("MatchingPhases runs at most 3 Spark jobs per phase plus 1") {
    val run = observe(MatchingPhases.run(spark, TestGraphs.toDf(spark, TestGraphs.starAndPathPlus(4)), 4))
    assert(run.result.phases > 1 && run.jobs <= 3 * run.result.phases + 1, s"${run.jobs} jobs in ${run.result.phases} phases")
  }

  // The count of the input, then for the sample and for the light edges
  // an MSF contraction (three jobs, the last of which collects its search
  // edges).
  test("KKT MSF runs at most 7 Spark jobs") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges, 4))
    val kkt = jobsOf(KktMsf.run(spark, df, 4, searchBudget = 8, localThreshold = 16))
    assert(kkt <= 7, s"KKT MSF $kkt jobs")
  }

  // Materialized before the count, so the generator's own jobs are not counted.
  private lazy val cycles = GraphGen.twoCycles(spark, 300).localCheckpoint()

  // The adjacency write, which also picks the samples, and the walks.
  test("AMPC 2-Cycle runs at most 2 Spark jobs") {
    val g = cycles
    val twoCycle = jobsOf(AmpcTwoCycle.run(spark, g, 4, sampleInv = 16))
    assert(twoCycle <= 2, s"2-Cycle $twoCycle jobs")
  }

  private lazy val contraction = observe(LocalContractionCC.run(spark, cycles, 4, localThreshold = 64))

  // One count per round and one to find the graph small, then the finish,
  // which reads the residual edges and supervertices and stores the labels.
  test("LocalContractionCC runs at most one Spark job per round plus 2") {
    val cc = contraction
    assert(cc.result.rounds > 1 && cc.jobs <= cc.result.rounds + 2, s"${cc.jobs} jobs in ${cc.result.rounds} rounds")
  }

  // Each declared shuffle (parents, dst, dedup with the label rows) writes
  // in one stage, plus the one that keys the input both ways by src.
  test("LocalContractionCC writes shuffle data in at most 3 stages per round plus 1") {
    val cc = contraction
    assert(cc.shuffleStages <= 3 * cc.result.rounds + 1, s"${cc.shuffleStages} shuffle stages in ${cc.result.rounds} rounds")
  }

  /** The three rootset and Boruvka baselines with no in-memory finish, so
    * every phase runs on Spark.
    */
  private lazy val mpcRuns = {
    val df = TestGraphs.toDf(spark, edges)
    val weighted = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges, 4))
    Seq(
      ("MIS", 2, observe(MpcMis.run(spark, df, 4, localThreshold = 0).phases)),
      ("MM", 2, observe(MpcMatching.run(spark, df, 4, localThreshold = 0).phases)),
      ("MSF", 3, observe(MpcMsf.run(spark, weighted, 4, localThreshold = 0).phases)),
    )
  }

  // One action per phase sizes the graph and takes the phase's rootset,
  // matched pairs or minimum edges; one more finds the graph empty.
  test("MPC MIS, MM and MSF run at most one Spark job per phase plus 2") {
    val over = mpcRuns.collect { case (name, _, run) if run.jobs > run.result + 2 => s"$name: ${run.jobs} jobs in ${run.result} phases" }
    assert(over.isEmpty, over.mkString("; "))
  }

  // Each declared shuffle writes in one stage, plus the one that sets up
  // the adjacency or the edges keyed by src.
  test("MPC MIS, MM and MSF write shuffle data in one stage per declared shuffle plus 1") {
    val over = mpcRuns.collect {
      case (name, perPhase, run) if run.shuffleStages > perPhase * run.result + 1 =>
        s"$name: ${run.shuffleStages} shuffle stages in ${run.result} phases"
    }
    assert(over.isEmpty, over.mkString("; "))
  }

  // The kit combines in its own hash maps around plain shuffles, which
  // Spark writes with its bypass-merge writer and reads without a merge.
  // A `combineByKey` runs Spark's ExternalSorter and ExternalAppendOnlyMap,
  // which report the execution memory they held.
  test("AMPC MSF, LocalContractionCC and MPC MSF tasks report no execution memory") {
    val weighted = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges, 4)).localCheckpoint()
    val g = cycles
    val peaks = Seq(
      "AMPC MSF" -> observe(AmpcMsf.run(spark, weighted, 4)).peakExecutionMemory,
      "LocalContractionCC" -> observe(LocalContractionCC.run(spark, g, 4, localThreshold = 64)).peakExecutionMemory,
      "MPC MSF" -> observe(MpcMsf.run(spark, weighted, 4, localThreshold = 0)).peakExecutionMemory,
    )
    val over = peaks.collect { case (name, peak) if peak > 0 => s"$name: a task held $peak bytes" }
    assert(over.isEmpty, over.mkString("; "))
  }
}

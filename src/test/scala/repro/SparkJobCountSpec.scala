package repro

import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.core.{AmpcMatching, AmpcMis, AmpcMsf, AmpcTwoCycle}
import repro.graphs.GraphGen
import repro.mpc.LocalContractionCC
import scala.collection.mutable

/** Upper bounds on the Spark jobs one algorithm call runs. At this scale
  * wall clock follows the job count, so a new bookkeeping action shows here.
  */
class SparkJobCountSpec extends SparkSpec {

  /** Records each job's group, and the group of each SQL execution, so a
    * job AQE submits from a pool thread without a group is still charged
    * to the group of the action that started its execution.
    */
  private final class JobsByGroup extends SparkListener {
    private val jobs = mutable.ArrayBuffer.empty[(Option[String], Option[Long])]
    private val execGroup = mutable.HashMap.empty[Long, String]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
      jobs += ((prop("spark.jobGroup.id"), prop("spark.sql.execution.id").map(_.toLong)))
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => synchronized(s.jobGroupId.foreach(execGroup(s.executionId) = _))
      case _                                 =>
    }

    def count(group: String): Int = synchronized {
      jobs.count { case (g, x) => g.orElse(x.flatMap(execGroup.get)).contains(group) }
    }
  }

  private def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    val group = "job-count"
    val listener = new JobsByGroup
    ListenerDrain(sc); sc.addSparkListener(listener)
    sc.setJobGroup(group, group)
    try body
    finally {
      sc.clearJobGroup()
      ListenerDrain(sc); sc.removeSparkListener(listener)
    }
    listener.count(group)
  }

  private val edges = TestGraphs.randomEdges(60, 150, 4)

  test("AMPC MIS and MM run at most 4 Spark jobs") {
    val df = TestGraphs.toDf(spark, edges)
    val mis = jobsOf(AmpcMis.run(spark, df, 4))
    val mm = jobsOf(AmpcMatching.run(spark, df, 4))
    val mmNoCache = jobsOf(AmpcMatching.run(spark, df, 4, caching = false))
    assert(mis <= 4 && mm <= 4 && mmNoCache <= 4, s"MIS $mis, MM $mm, uncached MM $mmNoCache jobs")
  }

  test("AMPC MSF runs at most 15 Spark jobs") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges, 4))
    val msf = jobsOf(AmpcMsf.run(spark, df, 4))
    assert(msf <= 15, s"MSF $msf jobs")
  }

  // Materialized before the count, so the generator's own jobs are not counted.
  private lazy val cycles = GraphGen.twoCycles(spark, 300).localCheckpoint()

  test("AMPC 2-Cycle runs at most 5 Spark jobs") {
    val g = cycles
    val twoCycle = jobsOf(AmpcTwoCycle.run(spark, g, 4, sampleInv = 16))
    assert(twoCycle <= 5, s"2-Cycle $twoCycle jobs")
  }

  test("LocalContractionCC runs at most 60 Spark jobs") {
    val g = cycles
    val cc = jobsOf(LocalContractionCC.run(spark, g, 4, localThreshold = 64))
    assert(cc <= 60, s"LocalContractionCC $cc jobs")
  }
}

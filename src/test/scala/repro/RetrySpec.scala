package repro

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TaskContext
import org.apache.spark.api.plugin.{DriverPlugin, ExecutorPlugin, SparkPlugin}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AmpcMis, AmpcMatching, AmpcMsf, AmpcTwoCycle}
import repro.graphs.GraphGen

/** A retried task counts once: each run gives the same output and the
  * same `RunMetrics` whether or not the first attempt of partition 0 of
  * every result task fails after it has counted.
  *
  * The suite builds its own `local[4,3]` session (three attempts per task)
  * with [[FailFirstAttempt]] as a plugin, so build.sbt runs it in a JVM of
  * its own, away from the shared `local[*]` session of [[SparkSpec]].
  */
class RetrySpec extends AnyFunSuite {
  private lazy val spark: SparkSession = {
    val s = SparkSession.builder()
      .master("local[4,3]")
      .appName("repro-retry")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.plugins", classOf[FailFirstAttempt].getName)
      .getOrCreate()
    s.sparkContext.addSparkListener(FailFirstAttempt.Stages)
    // Each injected failure would log its stack trace twice.
    s.sparkContext.setLogLevel("FATAL")
    s
  }

  private lazy val plain = TestGraphs.toDf(spark, TestGraphs.randomEdges(200, 800, 5))

  /** `run` on a clean context, then with failures injected. */
  private def cleanAndFaulty[R](run: => R): (R, R) = {
    val clean = run
    val before = FailFirstAttempt.failures.get
    FailFirstAttempt.armed = true
    val faulty = try run finally FailFirstAttempt.armed = false
    assert(FailFirstAttempt.failures.get > before, "no failure was injected")
    (clean, faulty)
  }

  test("AMPC MIS without caching gives the same output and counters when tasks are retried") {
    val (clean, faulty) = cleanAndFaulty(AmpcMis.run(spark, plain, 3, caching = false))
    assert(faulty == clean)
  }

  test("AMPC MM without caching gives the same output and counters when tasks are retried") {
    val (clean, faulty) = cleanAndFaulty(AmpcMatching.run(spark, plain, 3, caching = false))
    assert(faulty == clean)
  }

  test("AMPC MIS with caching gives the same output and counters when tasks are retried") {
    val (clean, faulty) = cleanAndFaulty(AmpcMis.run(spark, plain, 3, caching = true))
    assert(faulty == clean)
  }

  test("AMPC MM with caching gives the same output and counters when tasks are retried") {
    val (clean, faulty) = cleanAndFaulty(AmpcMatching.run(spark, plain, 3, caching = true))
    assert(faulty == clean)
  }

  test("AMPC 2-Cycle gives the same output and counters when tasks are retried") {
    val (clean, faulty) = cleanAndFaulty(AmpcTwoCycle.run(spark, GraphGen.twoCycles(spark, 300), 3, 8))
    assert(faulty == clean)
  }

  test("AMPC MSF gives the same output and counters when tasks are retried") {
    val weighted = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(200, 800, 5), 5))
    def outcome(r: AmpcMsf.Result) = (
      r.msf.toSet, r.mapping.collect().map(row => (row.getLong(0), row.getLong(1))).toSet, r.contracted.toSet,
      r.nContracted, r.metrics)
    val (clean, faulty) = cleanAndFaulty(AmpcMsf.run(spark, weighted, 3))
    assert(outcome(faulty) == outcome(clean))
  }
}

/** While `armed`, fails the first attempt of partition 0 of every result
  * task after the task has run, so its counters are updated, and before
  * Spark accepts its result.
  */
final class FailFirstAttempt extends SparkPlugin {
  override def driverPlugin(): DriverPlugin = null

  override def executorPlugin(): ExecutorPlugin = new ExecutorPlugin {
    override def onTaskStart(): Unit = {
      val ctx = TaskContext.get()
      if (FailFirstAttempt.armed && ctx.partitionId() == 0 && ctx.attemptNumber() == 0)
        ctx.addTaskCompletionListener[Unit] { c =>
          if (!c.isFailed() && FailFirstAttempt.isResultStage(c.stageId())) {
            FailFirstAttempt.failures.incrementAndGet()
            throw new IllegalStateException(s"injected failure in stage ${c.stageId()}")
          }
        }
    }
  }
}

object FailFirstAttempt {
  @volatile var armed = false
  val failures = new AtomicInteger

  /** Whether each stage a job started is its result stage: the job's
    * highest stage id, as Spark creates the parent stages first.
    */
  object Stages extends SparkListener {
    val isResult = new ConcurrentHashMap[Int, Boolean]

    override def onJobStart(job: SparkListenerJobStart): Unit =
      job.stageIds.foreach(s => isResult.put(s, s == job.stageIds.max))
  }

  /** Waits for the listener, which hears of a job after its tasks may
    * have started.
    */
  private def isResultStage(stage: Int): Boolean = {
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!Stages.isResult.containsKey(stage) && System.nanoTime() < deadline) Thread.sleep(1)
    Stages.isResult.getOrDefault(stage, false)
  }
}

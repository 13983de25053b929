package perfbench

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import scala.collection.mutable

/** One Spark job as the listener saw it. Times are driver epoch ms. */
final case class JobRec(
    id: Int,
    group: Option[String],
    execId: Option[Long],
    callSite: String,
    startMs: Long,
    var endMs: Long,
)

/** One completed stage attempt, charged to the latest job that listed it. */
final case class StageRec(
    id: Int,
    attempt: Int,
    jobId: Int,
    submitMs: Long,
    endMs: Long,
    tasks: Int,
    cpuNs: Long,
    shuffleWriteBytes: Long,
)

/** One SQL execution: the action that started it and the group it ran under. */
final case class ExecRec(id: Long, group: Option[String], description: String, startMs: Long, var endMs: Long)

/** SparkListener registered by the benchmark for traced passes only. It
  * keeps every job, stage and SQL execution in memory; the benchmark reads
  * them after draining the listener bus.
  */
final class SparkTrace extends SparkListener {
  private val jobBuf = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stageBuf = mutable.ArrayBuffer.empty[StageRec]
  private val stageOwner = mutable.HashMap.empty[Int, Int]
  private val execBuf = mutable.LinkedHashMap.empty[Long, ExecRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String): Option[String] = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
    jobBuf(e.jobId) = JobRec(
      e.jobId,
      prop("spark.jobGroup.id"),
      prop("spark.sql.execution.id").map(_.toLong),
      prop("callSite.short").getOrElse(""),
      e.time,
      -1L,
    )
    e.stageIds.foreach(s => stageOwner(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobBuf.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stageOwner.get(i.stageId).foreach { job =>
      val tm = Option(i.taskMetrics)
      stageBuf += StageRec(
        i.stageId,
        i.attemptNumber(),
        job,
        i.submissionTime.getOrElse(0L),
        i.completionTime.getOrElse(0L),
        i.numTasks,
        tm.map(_.executorCpuTime).getOrElse(0L),
        tm.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
      )
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart =>
      synchronized { execBuf(s.executionId) = ExecRec(s.executionId, s.jobGroupId, s.description, s.time, -1L) }
    case s: SparkListenerSQLExecutionEnd =>
      synchronized { execBuf.get(s.executionId).foreach(_.endMs = s.time) }
    case _ =>
  }

  def jobs: Seq[JobRec] = synchronized(jobBuf.values.toSeq)
  def stages: Seq[StageRec] = synchronized(stageBuf.toSeq)
  def execs: Seq[ExecRec] = synchronized(execBuf.values.toSeq)

  /** The group a job belongs to. AQE submits map-stage jobs from a pool
    * thread; when such a job carries no group, its SQL execution id links
    * it to the action, and through that to the action's group.
    */
  def groupOf: JobRec => Option[String] = {
    val byExec = mutable.HashMap.empty[Long, String]
    execs.foreach(x => x.group.foreach(byExec(x.id) = _))
    jobs.foreach(j => for (x <- j.execId; g <- j.group) byExec.getOrElseUpdate(x, g))
    j => j.group.orElse(j.execId.flatMap(byExec.get))
  }
}

/** Interval arithmetic over [start, end) ms intervals. */
object Intervals {

  /** Length of the union of `iv`, each clipped to [lo, hi). */
  def covered(iv: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = iv
      .map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var total = 0L
    var curA = 0L
    var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) {
        if (curB > curA) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }
}

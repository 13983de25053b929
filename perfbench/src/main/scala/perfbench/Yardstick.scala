package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

/** A fixed batch of small Spark jobs that runs no program code: the
  * machine's speed at Spark job overhead, measured in the same run as
  * the program.
  *
  * On a shared host the speed of the same code drifts by a third and
  * more over minutes, and runs in a slow spell read slow throughout. Two
  * runs started at the same moment agree within a few percent. The
  * benchmark's calls are dominated by Spark job overhead, and this batch
  * slows down with them: over sets of six runs its time correlated with
  * pass time at 0.78–0.96, a pure CPU loop at 0.65–0.79 and the same
  * jobs through the typed Dataset API at 0.64. Time metrics divided by
  * the median time of one of its jobs compare runs made in different
  * spells.
  */
object Yardstick {
  val Jobs = 6

  /** Wall seconds of each of `Jobs` aggregations of 4,096 rows in 4 partitions. */
  def jobSeconds(spark: SparkSession): Seq[Double] =
    (1 to Jobs).map { _ =>
      val t0 = System.nanoTime()
      val groups = spark.range(0, 4096, 1, 4).groupBy(col("id") % 64).count().collect().length
      val s = (System.nanoTime() - t0) / 1e9
      require(groups == 64, s"yardstick: $groups groups, expected 64")
      s
    }
}

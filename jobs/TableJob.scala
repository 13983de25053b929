package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** spark-submit entrypoint for the evaluation tables.
  *
  * Usage: spark-submit --class repro.jobs.TableJob repro.jar <1|2|3|4> [--bench]
  * `--bench` selects the SF≈0.1 inputs; default is the SF≈0.01 test scale.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val (flags, rest) = args.partition(_ == "--bench")
    val table = rest match {
      case Array(t @ ("1" | "2" | "3" | "4")) => t.toInt
      case _ =>
        System.err.println("usage: TableJob <1|2|3|4> [--bench]")
        sys.exit(2)
    }
    val bench = flags.nonEmpty
    val spark = SparkSession
      .builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table$table")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try
      println(table match {
        case 1 => Tables.table1(spark, if (bench) Seq(10, 11, 12, 13, 14) else Seq(8, 9, 10))
        case 2 => Tables.table2(spark, bench)
        case 3 => Tables.table3(spark, bench)
        case 4 => Tables.table4(spark, bench)
      })
    finally spark.stop()
  }
}

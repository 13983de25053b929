package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** The table builders at test scale, each checked by [[TableChecks]]. */
class TablesSpec extends SparkSpec {

  test("table1 produces one row per scale with flat AMPC columns") {
    TableChecks.table1(Tables.table1(spark, bench = false), bench = false)
  }

  test("table2 lists every analog dataset and the cycle inputs") {
    TableChecks.table2(Tables.table2(spark, bench = false), bench = false)
  }

  test("table3 reports AMPC MIS/MM at 1 shuffle and AMPC MSF at 5") {
    TableChecks.table3(Tables.table3(spark, bench = false))
  }

  test("table4 shows AMPC-RDMA fastest on every row") {
    TableChecks.table4(Tables.table4(spark, bench = false), bench = false)
  }
}

object RenderSpec {
  final case class Row(name: String, count: Long, ratio: Vs[Double])
}

class RenderSpec extends AnyFunSuite {
  import RenderSpec.Row

  test("render lays out any row class as a markdown table under its caption") {
    val t = Table("caption", Seq(Row("a", 12345, Vs(1.0, "1.74")), Row("bb", 7, Vs(2.345, "-"))))
    assert(Tables.render(t) ==
      """caption
        |
        || name | count |       ratio |
        ||-----:|------:|------------:|
        ||    a | 12345 | 1.00 (1.74) |
        ||   bb |     7 |    2.35 (-) |
        |""".stripMargin)
  }
}

package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Registry of the evaluation inputs — laptop-scale analogs of Table 2's
  * real graphs plus the 2×k cycle family of §5.6.
  *
  * | analog | paper graph | paper n / m | construction here |
  * |--------|-------------|-------------|-------------------|
  * | OK     | com-Orkut   | 3.07M / 234M | RMAT, social-level skew |
  * | TW     | Twitter     | 41.6M / 2.4B | RMAT, heavier skew |
  * | FS     | Friendster  | 65.6M / 3.6B | uniform random (low skew, like FS) |
  * | CW     | ClueWeb     | 0.98B / 74.7B | RMAT, web-level skew (drives the join-skew effect of §5.3) |
  * | HL     | Hyperlink12 | 3.56B / 225.8B | RMAT + many small disconnected components (HL has 144.6M CCs) |
  *
  * Two scales: `test` (SF≈0.01, unit tests) and `bench` (SF≈0.1).
  */
object Datasets {
  import repro.graphs.GraphGen

  final case class PaperRow(n: String, m: String, diam: String, numCc: String, largestCc: String)

  /** A real-graph analog, keyed as in the paper's tables. */
  final case class GraphCase(key: String, edges: DataFrame)

  /** The paper's Table 2 rows (for side-by-side reporting). */
  val paperTable2: Map[String, PaperRow] = Map(
    "OK" -> PaperRow("3.07M", "234.4M", "9", "1", "3.1M"),
    "TW" -> PaperRow("41.6M", "2.4B", "23*", "2", "41.6M"),
    "FS" -> PaperRow("65.6M", "3.6B", "32", "1", "65.6M"),
    "CW" -> PaperRow("0.978B", "74.7B", "-", "-", "-"),
    "HL" -> PaperRow("3.56B", "225.8B", "331*", "144,628,744", "3.35B"),
  )

  def realGraphAnalogs(spark: SparkSession, bench: Boolean): Seq[GraphCase] = {
    val s = if (bench) 0 else -4 // test scale: 16x smaller
    val offset = 1L << 40 // HL's clutter ids, clear of the RMAT id space
    Seq(
      GraphCase("OK", GraphGen.rmat(spark, 15 + s, 16, seed = 101)),
      GraphCase("TW", GraphGen.rmat(spark, 16 + s, 16, seed = 102, a = 0.62, b = 0.18, c = 0.18)),
      GraphCase("FS", GraphGen.uniform(spark, 1L << (16 + s), 20L << (16 + s), seed = 103)),
      GraphCase("CW", GraphGen.rmat(spark, 16 + s, 24, seed = 104, a = 0.67, b = 0.16, c = 0.16)),
      GraphCase("HL", GraphGen.rmat(spark, 16 + s, 20, seed = 105, a = 0.65, b = 0.17, c = 0.17)
        .union(GraphGen.clutter(spark, count = if (bench) 20000 else 500, size = 4, offset = offset))),
    )
  }

  /** RMAT scales of Table 1's inputs (n ≤ 2^scale), one row each. */
  def table1Scales(bench: Boolean): Seq[Int] = if (bench) 10 to 13 else Seq(7, 8)

  /** A 2×k cycle input. Ours are 10⁴ times shorter than the paper's;
    * `paperLabel` names the paper's row for the same rank.
    */
  final case class CycleCase(label: String, paperLabel: String, k: Long) {
    def edges(spark: SparkSession): DataFrame = GraphGen.twoCycles(spark, k)
  }

  /** The 2×k cycle inputs; the paper uses k ∈ {1e8, 1e9, 1e10}, we use
    * k ∈ {1e4, 1e5, 1e6} (`bench`) or {1e3, 1e4} (test).
    */
  def cycleCases(bench: Boolean): Seq[CycleCase] =
    (if (bench) Seq(4, 5, 6) else Seq(3, 4)).map(e => CycleCase(s"2e$e", s"2e${e + 4}", math.pow(10, e).toLong))

  /** Paper Table 4: (RDMA, TCP/IP, MPC) normalized times, keyed by the
    * paper's cycle label (2-Cycle rows) or the analog key (MIS rows).
    */
  val paperTable4: Map[String, (String, String, String)] = Map(
    "2e8" -> ("1.00", "1.74", "3.40"),
    "2e9" -> ("1.00", "3.75", "6.70"),
    "2e10" -> ("1.00", "5.90", "9.87"),
    "OK" -> ("1.00", "1.85", "2.39"),
    "TW" -> ("1.00", "1.63", "3.04"),
    "FS" -> ("1.00", "1.50", "2.98"),
    "CW" -> ("1.00", "1.68", "2.37"),
    "HL" -> ("1.00", "1.71", "2.30"),
  )

  /** Paper Table 3: shuffles per implementation per dataset. */
  val paperTable3: Map[String, Map[String, String]] = Map(
    "AMPC MIS" -> Map("OK" -> "1", "TW" -> "1", "FS" -> "1", "CW" -> "1", "HL" -> "1"),
    "AMPC MM" -> Map("OK" -> "1", "TW" -> "1", "FS" -> "1", "CW" -> "1", "HL" -> "1"),
    "AMPC MSF" -> Map("OK" -> "5", "TW" -> "5", "FS" -> "5", "CW" -> "5", "HL" -> "5"),
    "MPC MIS" -> Map("OK" -> "8", "TW" -> "10", "FS" -> "10", "CW" -> "12", "HL" -> "14"),
    "MPC MM" -> Map("OK" -> "8", "TW" -> "12", "FS" -> "12", "CW" -> "14", "HL" -> "16"),
    "MPC MSF" -> Map("OK" -> "33", "TW" -> "54", "FS" -> "57", "CW" -> "84", "HL" -> "n/a"),
  )
}

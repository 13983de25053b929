package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{CostModel, RunMetrics}
import repro.core._
import repro.graphs.{GraphGen, GraphOps, GraphStats}
import repro.mpc._

/** A measured value next to the paper's, rendered `ours (paper)`. */
final case class Vs[A](ours: A, paper: String)

/** An evaluation table: its caption and one typed row per line. */
final case class Table[+R <: Product](caption: String, rows: Seq[R])

final case class Table1Row(n: Long, m: Long, ampcMis: Long, ampcMm: Long, ampcMsf: Long, ampc2Cycle: Long,
    mpcMis: Long, mpcMm: Long, mpcMsf: Long, mpcCc: Long)
final case class Table2Row(graph: String, n: Vs[Long], m: Vs[Long], diam: Vs[String], numCc: Vs[Long], maxCc: Vs[Long])
final case class Table3Row(graph: String, ampcMis: Vs[Long], ampcMm: Vs[Long], ampcMsf: Vs[Long],
    mpcMis: Vs[Long], mpcMm: Vs[Long], mpcMsf: Vs[Long])
final case class Table4Row(algorithm: String, input: String, rdma: Vs[Double], tcp: Vs[Double], mpc: Vs[Double],
    rdmaMs: Double)

/** Builders for the four evaluation tables, at test scale or (`bench`) at
  * the scale EXPERIMENTS.md records, and the one renderer that prints them.
  */
object Tables {

  /** Lays out any table as a markdown table under its caption: one
    * right-aligned column per row field, headed by the field's name.
    * Doubles print with two decimals, a [[Vs]] cell as `ours (paper)`.
    */
  def render(t: Table[Product]): String = {
    def cell(x: Any): String = x match {
      case Vs(ours, paper) => s"${cell(ours)} ($paper)"
      case d: Double       => f"$d%.2f"
      case other           => other.toString
    }
    val header = t.rows.headOption.fold(Seq.empty[String])(_.productElementNames.toSeq)
    val body = t.rows.map(_.productIterator.map(cell).toSeq)
    val widths = (header +: body).transpose.map(_.map(_.length).max)
    def line(cells: Seq[String]) =
      cells.zip(widths).map { case (c, w) => " " * (w - c.length) + c }.mkString("| ", " | ", " |")
    (Seq(t.caption, "", line(header), widths.map("-" * _ + "-:").mkString("|", "|", "|")) ++ body.map(line))
      .mkString("", "\n", "\n")
  }

  /** The MPC in-memory cutoff of Tables 3 and 4: the paper's 5·10⁷-edge
    * cutoff, scaled to our inputs.
    */
  private def mpcCutoff(m: Long): Long = math.max(256L, m / 64)

  /** Round-complexity analog of Table 1: measured rounds/phases of every
    * implementation on growing inputs. AMPC columns should stay flat
    * (O(1)); MPC columns should grow like log n.
    */
  def table1(spark: SparkSession, bench: Boolean): Table[Table1Row] = Table(
    "Table 1 analog -- measured rounds (AMPC) vs phases (MPC) as n grows " +
      "(paper: AMPC O(1) for MIS/MM/MSF/2-cycle; MPC Theta(log n) phases)",
    Datasets.table1Scales(bench).map { sc =>
      val g = GraphGen.rmat(spark, sc, 8, seed = 40 + sc).persist()
      val wg = GraphOps.withDegreeWeights(g).persist()
      val cyc = GraphGen.twoCycles(spark, 1L << (sc - 1))
      val aMis = AmpcMis.run(spark, g, seed = 1)
      val aMm = AmpcMatching.run(spark, g, seed = 1)
      // Fixed in-memory cutoff: the Θ(log n) phase growth of the MPC
      // algorithms only shows when the cutoff does not scale with m.
      val thr = 64L
      val row = Table1Row(
        GraphOps.vertices(g).count(), g.count(),
        aMis.metrics.shuffles + aMis.passes, aMm.metrics.shuffles + aMm.passes,
        AmpcMsf.run(spark, wg, seed = 1).metrics.shuffles,
        AmpcTwoCycle.run(spark, cyc, seed = 1, sampleInv = 16).metrics.shuffles + 1,
        MpcMis.run(spark, g, seed = 1, localThreshold = thr).phases.toLong,
        MpcMatching.run(spark, g, seed = 1, localThreshold = thr).phases.toLong,
        MpcMsf.run(spark, wg, seed = 1, localThreshold = thr).phases.toLong,
        LocalContractionCC.run(spark, cyc, seed = 1, localThreshold = thr).rounds.toLong,
      )
      wg.unpersist(); g.unpersist()
      row
    },
  )

  /** Table 2: the statistics of every input, each measured from its
    * connectivity labels and edges, the cycle inputs as the analogs.
    */
  def table2(spark: SparkSession, bench: Boolean): Table[Table2Row] = {
    def row(graph: String, input: DataFrame, p: Datasets.PaperRow): Table2Row = {
      val edges = input.persist()
      val cc = AmpcConnectivity.run(spark, edges, seed = 7)
      val st = GraphStats.stats(edges, cc.labels)
      cc.labels.unpersist(); edges.unpersist()
      Table2Row(graph, Vs(st.n, p.n), Vs(st.m, p.m), Vs(s"${st.diameter}*", p.diam), Vs(st.numComponents, p.numCc),
        Vs(st.largestComponent, p.largestCc))
    }
    val analogs = Datasets.realGraphAnalogs(spark, bench).map(gc => row(gc.key, gc.edges, Datasets.paperTable2(gc.key)))
    val cycles = Datasets.cycleCases(bench).map(c => row(c.label, c.edges(spark), Datasets.PaperRow("2k", "2k", "k/2", "2", "k")))
    Table("Table 2 analog -- graph inputs, ours (paper)", analogs ++ cycles)
  }

  /** Table 3: declared shuffles of every implementation on every analog. */
  def table3(spark: SparkSession, bench: Boolean): Table[Table3Row] = Table(
    "Table 3 analog -- shuffles (costly rounds), ours (paper)",
    Datasets.realGraphAnalogs(spark, bench).map { gc =>
      val e = gc.edges.persist()
      val thr = mpcCutoff(e.count())
      val we = GraphOps.withDegreeWeights(e).persist()
      def vs(algorithm: String, m: RunMetrics) = Vs(m.shuffles, Datasets.paperTable3(algorithm)(gc.key))
      val row = Table3Row(
        gc.key,
        vs("AMPC MIS", AmpcMis.run(spark, e, seed = 3).metrics),
        vs("AMPC MM", AmpcMatching.run(spark, e, seed = 3).metrics),
        vs("AMPC MSF", AmpcMsf.run(spark, we, seed = 3).metrics),
        vs("MPC MIS", MpcMis.run(spark, e, seed = 3, localThreshold = thr).metrics),
        vs("MPC MM", MpcMatching.run(spark, e, seed = 3, localThreshold = thr).metrics),
        vs("MPC MSF", MpcMsf.run(spark, we, seed = 3, localThreshold = thr).metrics),
      )
      we.unpersist(); e.unpersist()
      row
    },
  )

  /** Table 4: modeled AMPC time on TCP/IP and MPC time, each over AMPC
    * time on RDMA, for 1-vs-2-Cycle and MIS.
    */
  def table4(spark: SparkSession, bench: Boolean): Table[Table4Row] = {
    def row(algorithm: String, input: String, paperKey: String, edges: DataFrame)(
        ampc: DataFrame => RunMetrics,
        mpc: (DataFrame, Long) => RunMetrics,
    ): Table4Row = {
      val e = edges.persist()
      val a = ampc(e)
      val tMpc = CostModel.Mpc.seconds(mpc(e, mpcCutoff(e.count())))
      e.unpersist()
      val tRdma = CostModel.Rdma.seconds(a)
      val (pr, pt, pm) = Datasets.paperTable4.getOrElse(paperKey, ("-", "-", "-"))
      Table4Row(algorithm, input, Vs(1.0, pr), Vs(CostModel.Tcp.seconds(a) / tRdma, pt), Vs(tMpc / tRdma, pm),
        tRdma * 1000)
    }
    val cycles = Datasets.cycleCases(bench).map { c =>
      row("2-Cyc.", c.label, c.paperLabel, c.edges(spark))(
        AmpcTwoCycle.run(spark, _, seed = 5, sampleInv = 64).metrics,
        (e, thr) => LocalContractionCC.run(spark, e, seed = 5, localThreshold = thr).metrics,
      )
    }
    val mis = Datasets.realGraphAnalogs(spark, bench).map { gc =>
      row("MIS", gc.key, gc.key, gc.edges)(
        AmpcMis.run(spark, _, seed = 5).metrics,
        (e, thr) => MpcMis.run(spark, e, seed = 5, localThreshold = thr).metrics,
      )
    }
    Table("Table 4 analog -- normalized modeled running times, ours (paper); rdmaMs: AMPC-RDMA modeled ms",
      cycles ++ mis)
  }
}

package repro.eval

import org.scalatest.Assertions._

/** The structural claims each evaluation table must show, asserted on its
  * rows. `TablesSpec` runs them at test scale and the `bench` suites at
  * bench scale; a failure prints the whole table.
  */
object TableChecks {

  private val analogs = Datasets.paperTable2.keys.toSeq.sorted

  /** One row per scale; every AMPC column flat, AMPC MSF at its five
    * shuffles; at bench scale, MPC MIS phases never fewer on a larger
    * input.
    */
  def table1(t: Table[Table1Row], bench: Boolean): Unit = withClue(Tables.render(t)) {
    assert(t.rows.size == Datasets.table1Scales(bench).size)
    val ampc = Seq[(String, Table1Row => Long)](
      "ampcMis" -> (_.ampcMis), "ampcMm" -> (_.ampcMm), "ampcMsf" -> (_.ampcMsf), "ampc2Cycle" -> (_.ampc2Cycle))
    ampc.foreach { case (name, col) => assert(t.rows.map(col).distinct.size == 1, s"$name is not constant") }
    assert(t.rows.forall(_.ampcMsf == 5))
    // At bench scale only: the test-scale inputs (n = 111 and 222) take
    // 2 and 1 MPC MIS phases, too few for the log n growth to show.
    val mpcMis = t.rows.map(_.mpcMis)
    if (bench) assert(mpcMis.zip(mpcMis.tail).forall { case (a, b) => a <= b }, "mpcMis decreases")
  }

  /** A row per analog and per cycle input. The generated 2×k cycles
    * measure n = m = 2k, two components of k vertices and diameter k/2
    * (the BFS bound, exact on a cycle).
    */
  def table2(t: Table[Table2Row], bench: Boolean): Unit = withClue(Tables.render(t)) {
    val cycles = Datasets.cycleCases(bench)
    assert(t.rows.map(_.graph).sorted == (analogs ++ cycles.map(_.label)).sorted)
    t.rows.foreach(r => assert(r.numCc.ours >= 1 && r.maxCc.ours <= r.n.ours, r))
    cycles.foreach { c =>
      val r = t.rows.find(_.graph == c.label).get
      assert(r.n.ours == 2 * c.k && r.m.ours == 2 * c.k && r.numCc.ours == 2 && r.maxCc.ours == c.k, r)
      assert(r.diam.ours.stripSuffix("*") == (c.k / 2).toString, r)
    }
  }

  /** On every analog: AMPC MIS and MM one shuffle, AMPC MSF five, and
    * every MPC baseline more than one.
    */
  def table3(t: Table[Table3Row]): Unit = withClue(Tables.render(t)) {
    assert(t.rows.map(_.graph).sorted == analogs)
    t.rows.foreach { r =>
      assert(r.ampcMis.ours == 1 && r.ampcMm.ours == 1 && r.ampcMsf.ours == 5, r)
      assert(Seq(r.mpcMis, r.mpcMm, r.mpcMsf).forall(_.ours > 1), r)
    }
  }

  /** A 2-Cycle row per cycle input and a MIS row per analog; on every row
    * AMPC on RDMA is fastest: TCP/IP and MPC at ratio ≥ 1.
    */
  def table4(t: Table[Table4Row], bench: Boolean): Unit = withClue(Tables.render(t)) {
    assert(t.rows.filter(_.algorithm == "2-Cyc.").map(_.input) == Datasets.cycleCases(bench).map(_.label))
    assert(t.rows.filter(_.algorithm == "MIS").map(_.input).sorted == analogs)
    assert(t.rows.size == Datasets.cycleCases(bench).size + analogs.size)
    t.rows.foreach { r =>
      assert(r.rdma.ours == 1.0 && r.tcp.ours >= 1.0 && r.mpc.ours >= 1.0, r)
    }
  }
}

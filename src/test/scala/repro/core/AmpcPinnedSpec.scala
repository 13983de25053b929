package repro.core

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.graphs.{GraphGen, GraphOps}

/** Outputs of the AMPC MSF, 1-vs-2-Cycle and connectivity calls, recorded
  * on the Dataset implementation that preceded the pair-RDD rounds. Any
  * change to the contraction shows here, down to the orientation of each
  * contracted edge's original endpoints.
  */
class AmpcPinnedSpec extends SparkSpec {

  /** Checksum of rows in sorted order, so independent of collect order. */
  private def checksum(rows: Iterable[Seq[Long]]): Long =
    rows.toSeq.sorted(Ordering.Implicits.seqOrdering[Seq, Long]).foldLeft(0L) { (h, r) =>
      r.foldLeft(Priorities.splitmix64(h))((x, y) => Priorities.splitmix64(x ^ y))
    }

  private def bits(w: Double): Long = java.lang.Double.doubleToLongBits(w)

  /** Canonical (src, dst, weight) edges with every other row reversed, and
    * the first `dup` rows repeated in reverse: the contraction must keep
    * each row's own orientation.
    */
  private def scrambled(n: Int, m: Int, dup: Int, seed: Long): DataFrame = {
    val es = TestGraphs.withWeights(TestGraphs.randomEdges(n, m, seed), seed).zipWithIndex.map {
      case ((u, v, w), i) => if (i % 2 == 1) (v, u, w) else (u, v, w)
    }
    TestGraphs.toWeightedDf(spark, es ++ es.take(dup).map { case (u, v, w) => (v, u, w) })
  }

  private def msfPinned(name: String, input: => DataFrame, seed: Long, budget: Int)(
      msf: (Int, Long), contracted: (Int, Long), nContracted: Long, mapping: (Long, Long)): Unit =
    test(s"AMPC MSF outputs are pinned: $name") {
      val res = AmpcMsf.run(spark, input, seed, searchBudget = budget)
      val got = (
        (res.msf.toSet.size, checksum(res.msf.toSet.map((e: (Long, Long, Double)) => Seq(e._1, e._2, bits(e._3))))),
        (res.contracted.size, checksum(res.contracted.map(c => Seq(c._1, c._2, c._3, c._4, bits(c._5))))),
        res.nContracted,
        {
          val ms = res.mapping.collect().map(r => Seq(r.getLong(0), r.getLong(1))).toSeq
          (ms.size.toLong, checksum(ms))
        },
      )
      assert(res.msf.size == got._1._1, "an MSF edge is reported twice")
      assert(got == ((msf, contracted, nContracted, mapping)))
    }

  msfPinned("random weights, seed 1", TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(120, 300, 1), 1)), 1, 8)(
    (119, 6751722859792169951L), (138, -6251373662209745880L), 43L, (120L, -8547089036902305236L))
  msfPinned("R-MAT with degree weights (tied weights), seed 2",
    GraphOps.withDegreeWeights(GraphGen.rmat(spark, 8, 4, 2, a = 0.67, b = 0.16, c = 0.16)), 2, 8)(
    (139, 8158032998391649818L), (182, -3674447671742870995L), 40L, (140L, 9027641983054163488L))
  msfPinned("reversed and repeated rows, seed 3", scrambled(100, 250, 30, 3), 3, 4)(
    (99, 5034430978855667830L), (150, -8832534072306296789L), 40L, (100L, -3098129779942881137L))

  private def cyclePinned(name: String, input: => DataFrame, seed: Long, sampleInv: Int)(want: (Long, Long, Long)): Unit =
    test(s"AMPC 2-Cycle outputs are pinned: $name") {
      val res = AmpcTwoCycle.run(spark, input, seed, sampleInv)
      assert((res.numCycles, res.sampled, res.covered) == want)
    }

  cyclePinned("two 724-cycles, seed 1", GraphGen.twoCycles(spark, 724), 1, 32)((2L, 38L, 1448L))
  cyclePinned("a 600-cycle, seed 2", GraphGen.cycle(spark, 600), 2, 16)((1L, 42L, 600L))
  cyclePinned("three 200-cycles, seed 3",
    GraphGen.cycle(spark, 200, 0).union(GraphGen.cycle(spark, 200, 200)).union(GraphGen.cycle(spark, 200, 400)), 3, 16)((3L, 50L, 600L))

  private def ccPinned(name: String, input: => DataFrame, seed: Long)(components: Long, labels: (Long, Long)): Unit =
    test(s"AMPC connectivity partition is pinned: $name") {
      val res = AmpcConnectivity.run(spark, input, seed)
      val pairs = res.labels.collect().map(r => (r.getLong(0), r.getLong(1)))
      // Each vertex labelled by the smallest id in its part: the partition, not the label values.
      val low = pairs.groupBy(_._2).values.flatMap(part => part.map(p => (p._1, part.map(_._1).min))).toSeq
      assert((res.numComponents, (low.size.toLong, checksum(low.map(p => Seq(p._1, p._2))))) == ((components, labels)))
    }

  ccPinned("a sparse random graph, seed 1", TestGraphs.toDf(spark, TestGraphs.randomEdges(300, 240, 1)), 1)(15L, (237L, 7000132642498269137L))
  ccPinned("R-MAT, seed 2", GraphGen.rmat(spark, 9, 2, 2), 2)(4L, (306L, 8989179333469999453L))
  ccPinned("two 300-cycles, seed 3", GraphGen.twoCycles(spark, 300), 3)(2L, (600L, -9038077197694976531L))
}

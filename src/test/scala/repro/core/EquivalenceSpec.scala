package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.mpc.{LocalContractionCC, MpcMatching, MpcMis, MpcMsf}
import repro.ref.Reference

/** Cross-model equivalence — the paper's point that "by specifying the
  * same source of randomness, both the MPC and AMPC algorithms compute
  * the same MIS" (§5.3). With shared splitmix64 priorities, AMPC, MPC and
  * the sequential reference must agree bit-for-bit.
  */
class EquivalenceSpec extends SparkSpec {

  for (seed <- 1 to 6)
    test(s"AMPC MIS == MPC MIS == sequential (seed $seed)") {
      val edges = TestGraphs.randomEdges(30, 60, seed)
      val df = TestGraphs.toDf(spark, edges)
      val ampc = AmpcMis.run(spark, df, seed.toLong).mis
      val mpc = MpcMis.run(spark, df, seed.toLong, localThreshold = 8).mis
      val ref = Reference.lfMis(TestGraphs.vertices(edges), edges, Priorities.vertexRank(_, seed.toLong))
      assert(ampc == mpc)
      assert(ampc == ref)
    }

  for (seed <- 1 to 6)
    test(s"AMPC MM == MPC MM == sequential (seed $seed)") {
      val edges = TestGraphs.randomEdges(30, 60, seed)
      val df = TestGraphs.toDf(spark, edges)
      val ampc = AmpcMatching.run(spark, df, seed.toLong).matching
      val mpc = MpcMatching.run(spark, df, seed.toLong, localThreshold = 8).matching
      val ref = Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong))
      assert(ampc == mpc)
      assert(ampc == ref)
    }

  for (seed <- 1 to 6)
    test(s"AMPC MSF == Boruvka MSF == Kruskal (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.randomEdges(30, 70, seed), seed)
      val df = TestGraphs.toWeightedDf(spark, edges)
      val ampc = AmpcMsf.run(spark, df, seed.toLong, searchBudget = 8).msf.toSet
      val mpc = MpcMsf.run(spark, df, seed.toLong, localThreshold = 4).msf.toSet
      val ref = Reference
        .kruskal(edges)
        .map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }
        .toSet
      assert(ampc == mpc)
      assert(ampc == ref)
    }

  for (seed <- 1 to 4)
    test(s"AMPC connectivity partition == MPC local-contraction partition (seed $seed)") {
      val edges = TestGraphs.randomEdges(40, 55, seed)
      val df = TestGraphs.toDf(spark, edges)
      val a = AmpcConnectivity.run(spark, df, seed.toLong)
      val m = LocalContractionCC.run(spark, df, seed.toLong, localThreshold = 8)
      def parts(l: org.apache.spark.sql.DataFrame) =
        l.collect().map(r => (r.getLong(0), r.getLong(1))).groupBy(_._2).values.map(_.map(_._1).toSet).toSet
      assert(parts(a.labels) == parts(m.labels))
    }

  test("AMPC 2-cycle decision == MPC local-contraction component count") {
    import repro.graphs.GraphGen
    val one = GraphGen.cycle(spark, 400)
    val two = GraphGen.twoCycles(spark, 200)
    assert(AmpcTwoCycle.run(spark, one, 1, 16).numCycles ==
      LocalContractionCC.run(spark, one, 1, localThreshold = 8).numComponents)
    assert(AmpcTwoCycle.run(spark, two, 1, 16).numCycles ==
      LocalContractionCC.run(spark, two, 1, localThreshold = 8).numComponents)
  }
}

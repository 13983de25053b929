package repro.mpc

import repro.{SparkSpec, TestGraphs}
import repro.core.Priorities
import repro.graphs.{GraphGen, GraphOps}
import repro.ref.Reference

class MpcMisSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"rootset MIS equals the sequential LF MIS (seed $seed)") {
      val edges = TestGraphs.randomEdges(35, 70, seed)
      val res = MpcMis.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, localThreshold = 8)
      val expected = Reference.lfMis(TestGraphs.vertices(edges), edges, Priorities.vertexRank(_, seed.toLong))
      assert(res.mis == expected)
    }

  test("in-memory switch produces identical results to pure phases") {
    val edges = TestGraphs.randomEdges(30, 60, 9)
    val df = TestGraphs.toDf(spark, edges)
    val early = MpcMis.run(spark, df, 9, localThreshold = 1_000_000) // immediate switch
    val late = MpcMis.run(spark, df, 9, localThreshold = 0) // never switch
    assert(early.mis == late.mis)
    assert(early.phases == 0 && late.phases > 0)
  }

  test("two shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.randomEdges(40, 100, 10)
    val res = MpcMis.run(spark, TestGraphs.toDf(spark, edges), 10, localThreshold = 0)
    assert(res.metrics.shuffles == 2L * res.phases)
  }

  test("running out of phases throws instead of returning a partial MIS") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 100, 10))
    assert(MpcMis.run(spark, df, 10, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMis.run(spark, df, 10, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }

  test("phases grow with graph size (the Θ(log n) behavior)") {
    val small = MpcMis.run(spark, TestGraphs.toDf(spark, TestGraphs.randomEdges(16, 24, 2)), 2, localThreshold = 0)
    val large = MpcMis.run(spark, TestGraphs.toDf(spark, TestGraphs.randomEdges(256, 1024, 2)), 2, localThreshold = 0)
    assert(large.phases >= small.phases)
  }
}

class MpcMatchingSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"rootset matching equals the sequential LF matching (seed $seed)") {
      val edges = TestGraphs.randomEdges(35, 70, seed)
      val res = MpcMatching.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, localThreshold = 8)
      val expected = Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong))
      assert(res.matching == expected)
    }

  test("in-memory switch is transparent") {
    val edges = TestGraphs.randomEdges(30, 60, 9)
    val df = TestGraphs.toDf(spark, edges)
    val early = MpcMatching.run(spark, df, 9, localThreshold = 1_000_000)
    val late = MpcMatching.run(spark, df, 9, localThreshold = 0)
    assert(early.matching == late.matching)
  }

  test("two shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.randomEdges(40, 100, 10)
    val res = MpcMatching.run(spark, TestGraphs.toDf(spark, edges), 10, localThreshold = 0)
    assert(res.metrics.shuffles == 2L * res.phases)
  }

  test("running out of phases throws instead of returning a partial matching") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 100, 10))
    assert(MpcMatching.run(spark, df, 10, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMatching.run(spark, df, 10, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }
}

class MpcMsfSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"Boruvka equals Kruskal (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.randomEdges(30, 70, seed), seed)
      val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), seed.toLong, localThreshold = 4)
      val expected = Reference
        .kruskal(edges)
        .map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }
      assert(res.msf.toSet == expected.toSet)
    }

  test("three shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.withWeights(TestGraphs.randomEdges(40, 100, 9), 9)
    val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), 9, localThreshold = 4)
    assert(res.metrics.shuffles == 3L * res.phases)
  }

  test("running out of phases throws instead of returning a partial forest") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(40, 100, 9), 9))
    assert(MpcMsf.run(spark, df, 9, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMsf.run(spark, df, 9, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }

  test("degree-weighted MSF matches the reference") {
    val base = TestGraphs.toDf(spark, TestGraphs.randomEdges(25, 50, 3))
    val weighted = GraphOps.withDegreeWeights(base)
    val res = MpcMsf.run(spark, weighted, 3, localThreshold = 4)
    val expected = Reference.kruskal(GraphOps.collectWeighted(weighted))
    assert(TestGraphs.weightKey(res.msf) == TestGraphs.weightKey(expected))
  }

  test("disconnected graphs produce one forest per component") {
    val c1 = TestGraphs.withWeights(TestGraphs.connectedEdges(12, 6, 1), 1)
    val c2 = TestGraphs.withWeights(
      TestGraphs.connectedEdges(10, 5, 2).map { case (u, v) => (u + 100, v + 100) }, 2)
    val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, c1 ++ c2), 4, localThreshold = 4)
    assert(res.msf.size == (12 - 1) + (10 - 1))
  }
}

class LocalContractionCCSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"labels equal union-find components (seed $seed)") {
      val edges = TestGraphs.randomEdges(35, 50, seed)
      val res = LocalContractionCC.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, localThreshold = 4)
      val got = res.labels.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
      val expected = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
      assert(got.groupBy(_._2).values.map(_.keySet).toSet ==
        expected.groupBy(_._2).values.map(_.keys.toSet).toSet)
      assert(res.numComponents == expected.values.toSet.size)
    }

  test("distinguishes one cycle from two") {
    val one = LocalContractionCC.run(spark, GraphGen.cycle(spark, 400), 1, localThreshold = 8)
    val two = LocalContractionCC.run(spark, GraphGen.twoCycles(spark, 200), 1, localThreshold = 8)
    assert(one.numComponents == 1)
    assert(two.numComponents == 2)
  }

  test("three shuffles per round (the §5.6 accounting)") {
    val res = LocalContractionCC.run(spark, GraphGen.cycle(spark, 300), 2, localThreshold = 8)
    assert(res.metrics.shuffles == 3L * res.rounds)
  }

  test("each round shrinks a cycle by roughly 3x (2.59-3x in the paper)") {
    val res = LocalContractionCC.run(spark, GraphGen.cycle(spark, 3000), 3, localThreshold = 16)
    val shrinks = res.edgeTrajectory.sliding(2).collect {
      case Seq(a, b) if b > 16 => a.toDouble / b
    }.toSeq
    assert(shrinks.nonEmpty)
    val avg = shrinks.sum / shrinks.size
    assert(avg > 1.8 && avg < 5.0, s"avg shrink $avg")
  }

  test("round count grows logarithmically") {
    val small = LocalContractionCC.run(spark, GraphGen.cycle(spark, 100), 4, localThreshold = 4)
    val large = LocalContractionCC.run(spark, GraphGen.cycle(spark, 3000), 4, localThreshold = 4)
    assert(large.rounds > small.rounds)
    assert(large.rounds <= 20)
  }
}

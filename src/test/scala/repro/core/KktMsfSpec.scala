package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graphs.CoPartitioned
import repro.ref.Reference
import repro.trees.TreeFixtures

class FLightEdgesSpec extends SparkSpec {

  private def bruteLight(
      edges: Seq[(Long, Long, Double)],
      forest: Seq[(Long, Long, Double)],
  ): Set[(Long, Long, Double)] = {
    val fVerts = forest.flatMap(e => Seq(e._1, e._2)).distinct
    val comp = Reference.connectedComponents(fVerts, forest.map(e => (e._1, e._2)))
    edges.filter { case (u, v, w) =>
      (comp.get(u), comp.get(v)) match {
        case (Some(cu), Some(cv)) if cu == cv =>
          w <= TreeFixtures.bruteParentPathMax(forest, u, v)
        case _ => true
      }
    }.toSet
  }

  private def light(
      edges: Seq[(Long, Long, Double)],
      forest: Seq[(Long, Long, Double)],
  ): Set[(Long, Long, Double)] =
    CoPartitioned.run(spark) { kit =>
      kit.collect(FLightEdges.classify(kit, kit.triples(TestGraphs.toWeightedDf(spark, edges)), forest)).toSet
    }

  for (seed <- 1 to 8)
    test(s"classification matches brute force (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.randomEdges(25, 60, seed), seed)
      val forest = Reference.kruskal(TestGraphs.withWeights(TestGraphs.randomEdges(25, 30, seed + 50), seed))
      assert(light(edges, forest) == bruteLight(edges, forest))
    }

  test("forest edges are always light") {
    val forest = Reference.kruskal(TestGraphs.withWeights(TestGraphs.connectedEdges(15, 10, 3), 3))
    assert(light(forest, forest) == forest.toSet)
  }

  test("cross-component edges are always light") {
    val forest = Seq((0L, 1L, 0.5))
    val edges = Seq((2L, 3L, 9.9), (0L, 5L, 9.9))
    assert(light(edges, forest) == edges.toSet)
  }

  test("an edge heavier than its tree path is dropped") {
    val forest = Seq((0L, 1L, 1.0), (1L, 2L, 2.0))
    val edges = Seq((0L, 2L, 5.0), (0L, 2L, 1.5))
    assert(light(edges, forest) == Set((0L, 2L, 1.5)))
  }
}

class KktMsfSpec extends SparkSpec {

  for (seed <- 1 to 6)
    test(s"KKT sampled MSF equals Kruskal (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.randomEdges(40, 120, seed), seed)
      val res = KktMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), seed.toLong,
        searchBudget = 8, localThreshold = 16)
      val expected = Reference
        .kruskal(edges)
        .map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }
      assert(res.msf.toSet == expected.toSet)
    }

  test("small inputs short-circuit to the local solver") {
    val edges = TestGraphs.withWeights(TestGraphs.randomEdges(10, 15, 1), 1)
    val res = KktMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), 1, localThreshold = 1000)
    assert(res.metrics.shuffles == 0)
    assert(TestGraphs.weightKey(res.msf) == TestGraphs.weightKey(Reference.kruskal(edges)))
  }

  test("both paths return canonical edges") {
    val edges = Seq((5L, 2L, 0.3), (2L, 9L, 0.1))
    val res = KktMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), 1, localThreshold = 1000)
    assert(res.msf.toSet == Set((2L, 5L, 0.3), (2L, 9L, 0.1)))
  }

  test("light-edge filtering discards a constant fraction (Lemma 3.9 direction)") {
    val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(60, 400, 7), 7)
    val res = KktMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), 7,
      searchBudget = 8, localThreshold = 16)
    assert(res.lightEdges < edges.size, s"${res.lightEdges} of ${edges.size}")
    val expected = Reference.kruskal(edges)
    assert(TestGraphs.weightKey(res.msf) == TestGraphs.weightKey(expected))
  }
}

package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graphs.GraphGen
import repro.ref.Reference

class AmpcConnectivitySpec extends SparkSpec {

  private def labelsOf(res: AmpcConnectivity.Result): Map[Long, Long] =
    res.labels.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  for (seed <- 1 to 10)
    test(s"labels equal union-find components (seed $seed)") {
      val edges = TestGraphs.randomEdges(40, 60, seed)
      val res = AmpcConnectivity.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, searchBudget = 8)
      val got = labelsOf(res)
      val expected = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
      // same partition (label values may differ): compare induced partitions
      val gotParts = got.groupBy(_._2).values.map(_.keySet).toSet
      val expParts = expected.groupBy(_._2).values.map(_.keys.toSet).toSet
      assert(gotParts == expParts)
      assert(res.numComponents == expParts.size)
    }

  test("a connected graph has one component") {
    val edges = TestGraphs.connectedEdges(50, 30, 3)
    val res = AmpcConnectivity.run(spark, TestGraphs.toDf(spark, edges), 3)
    assert(res.numComponents == 1)
  }

  test("k disjoint paths give k components") {
    val g = GraphGen.clutter(spark, count = 9, size = 5, offset = 0)
    val res = AmpcConnectivity.run(spark, g, 4)
    assert(res.numComponents == 9)
  }

  test("two cycles give two components") {
    val res = AmpcConnectivity.run(spark, GraphGen.twoCycles(spark, 80), 5)
    assert(res.numComponents == 2)
  }

  test("forest connectivity labels a forest correctly (Prop 3.2 analog)") {
    val forest = (1 until 30).map(i => ((i / 2).toLong, i.toLong)) ++
      (101 until 120).map(i => ((100 + (i - 100) / 2).toLong, i.toLong))
    val res = AmpcConnectivity.run(spark, TestGraphs.toDf(spark, forest), 6)
    assert(res.numComponents == 2)
    val got = labelsOf(res)
    val expected = Reference.connectedComponents(TestGraphs.vertices(forest), forest)
    assert(got.groupBy(_._2).values.map(_.keySet).toSet ==
      expected.groupBy(_._2).values.map(_.keys.toSet).toSet)
  }

  // Both results are read again after the session's cache is dropped, as
  // a caller that clears it between calls does.
  test("labels and the MSF mapping read the same after a cache clear") {
    val cc = AmpcConnectivity.run(spark, TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 55, 3)), 3)
    val weighted = TestGraphs.withWeights(TestGraphs.randomEdges(30, 70, 2), 2)
    val msf = AmpcMsf.run(spark, TestGraphs.toWeightedDf(spark, weighted), 2)
    def mapping = msf.mapping.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val (labels, roots) = (labelsOf(cc), mapping)
    spark.catalog.clearCache()
    assert(labelsOf(cc) == labels)
    assert(mapping == roots)
    assert(labels.values.toSet.size == cc.numComponents && cc.numComponents == 2)
    assert(roots.values.toSet.size < roots.size)
  }
}

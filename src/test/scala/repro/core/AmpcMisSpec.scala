package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.ref.Reference

class AmpcMisSpec extends SparkSpec {

  for (seed <- 1 to 12)
    test(s"AMPC MIS equals the sequential lexicographically-first MIS (seed $seed)") {
      val edges = TestGraphs.randomEdges(40, 80, seed)
      val df = TestGraphs.toDf(spark, edges)
      val res = AmpcMis.run(spark, df, seed.toLong)
      val expected = Reference.lfMis(TestGraphs.vertices(edges), edges, Priorities.vertexRank(_, seed.toLong))
      assert(res.mis == expected)
      assert(Reference.isMis(TestGraphs.vertices(edges), edges, res.mis))
    }

  for (seed <- 1 to 4)
    test(s"AMPC MIS without caching computes the same MIS (seed $seed)") {
      val edges = TestGraphs.randomEdges(25, 40, seed)
      val df = TestGraphs.toDf(spark, edges)
      val cached = AmpcMis.run(spark, df, seed.toLong, caching = true)
      val uncached = AmpcMis.run(spark, df, seed.toLong, caching = false)
      assert(cached.mis == uncached.mis)
    }

  test("caching reduces DHT queries (the Figure 4 effect)") {
    val edges = TestGraphs.randomEdges(60, 150, 99)
    val df = TestGraphs.toDf(spark, edges)
    val cached = AmpcMis.run(spark, df, 99)
    val uncached = AmpcMis.run(spark, df, 99, caching = false)
    assert(cached.metrics.kvQueries < uncached.metrics.kvQueries)
    assert(cached.metrics.cacheHits > 0)
  }

  test("uses exactly one shuffle (Table 3)") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(30, 60, 5))
    assert(AmpcMis.run(spark, df, 5).metrics.shuffles == 1)
  }

  test("single pass suffices with an unlimited budget (2 rounds total)") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(30, 60, 6))
    assert(AmpcMis.run(spark, df, 6).passes == 1)
  }

  test("tiny query budget still converges through truncation passes") {
    val edges = TestGraphs.connectedEdges(30, 20, 7)
    val df = TestGraphs.toDf(spark, edges)
    val res = AmpcMis.run(spark, df, 7, caching = false, queryBudget = 2)
    val expected = Reference.lfMis(TestGraphs.vertices(edges), edges, Priorities.vertexRank(_, 7))
    assert(res.mis == expected)
    assert(res.passes > 1) // truncation forced extra rounds
  }

  test("a truncation schedule that cannot finish is rejected") {
    val df = TestGraphs.toDf(spark, TestGraphs.connectedEdges(30, 20, 7))
    val zero = intercept[IllegalArgumentException](AmpcMis.run(spark, df, 7, caching = false, queryBudget = 0))
    assert(zero.getMessage.contains("query budget 0"))
  }

  test("MIS on a path alternates from the global minimum-rank vertex") {
    val path = (0 until 12).map(i => (i.toLong, (i + 1).toLong))
    val df = TestGraphs.toDf(spark, path)
    val res = AmpcMis.run(spark, df, 3)
    assert(Reference.isMis(TestGraphs.vertices(path), path, res.mis))
  }

  test("MIS of a star is the center or all leaves") {
    val star = (1L to 10L).map(i => (0L, i))
    val df = TestGraphs.toDf(spark, star)
    val res = AmpcMis.run(spark, df, 11)
    assert(res.mis == Set(0L) || res.mis == (1L to 10L).toSet)
  }

  test("query process reports a dependent-chain depth") {
    val df = TestGraphs.toDf(spark, TestGraphs.connectedEdges(40, 0, 8))
    val res = AmpcMis.run(spark, df, 8)
    assert(res.metrics.maxChainDepth >= 1)
  }

  test("bytes written to the DHT are proportional to the graph") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 80, 9))
    val res = AmpcMis.run(spark, df, 9)
    assert(res.metrics.kvWriteBytes > 0)
  }

  test("different seeds give different (but valid) MIS") {
    val edges = TestGraphs.randomEdges(40, 90, 10)
    val df = TestGraphs.toDf(spark, edges)
    val a = AmpcMis.run(spark, df, 1).mis
    val b = AmpcMis.run(spark, df, 2).mis
    assert(Reference.isMis(TestGraphs.vertices(edges), edges, a))
    assert(Reference.isMis(TestGraphs.vertices(edges), edges, b))
    assert(a != b) // overwhelmingly likely
  }
}

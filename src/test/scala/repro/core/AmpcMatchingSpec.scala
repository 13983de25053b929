package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.ref.Reference

class AmpcMatchingSpec extends SparkSpec {

  for (seed <- 1 to 12)
    test(s"AMPC MM equals the sequential lexicographically-first matching (seed $seed)") {
      val edges = TestGraphs.randomEdges(40, 80, seed)
      val df = TestGraphs.toDf(spark, edges)
      val res = AmpcMatching.run(spark, df, seed.toLong)
      val expected = Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong))
      assert(res.matching == expected)
      assert(Reference.isMaximalMatching(edges, res.matching))
    }

  for (seed <- 1 to 4)
    test(s"AMPC MM without caching computes the same matching (seed $seed)") {
      val edges = TestGraphs.randomEdges(20, 35, seed)
      val df = TestGraphs.toDf(spark, edges)
      val cached = AmpcMatching.run(spark, df, seed.toLong)
      val uncached = AmpcMatching.run(spark, df, seed.toLong, caching = false)
      assert(cached.matching == uncached.matching)
    }

  test("caching reduces DHT queries (the §5.4 effect)") {
    val edges = TestGraphs.randomEdges(40, 100, 77)
    val df = TestGraphs.toDf(spark, edges)
    val cached = AmpcMatching.run(spark, df, 77)
    val uncached = AmpcMatching.run(spark, df, 77, caching = false)
    assert(cached.metrics.kvQueries < uncached.metrics.kvQueries)
  }

  test("uses exactly one shuffle (Table 3)") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(30, 60, 5))
    assert(AmpcMatching.run(spark, df, 5).metrics.shuffles == 1)
  }

  test("tiny query budget still converges through truncation passes") {
    val edges = TestGraphs.connectedEdges(24, 12, 6)
    val df = TestGraphs.toDf(spark, edges)
    val res = AmpcMatching.run(spark, df, 6, caching = false, queryBudget = 2)
    val expected = Reference.lfMatching(edges, Priorities.edgeRank(_, _, 6))
    assert(res.matching == expected)
  }

  test("a truncation schedule that cannot finish is rejected") {
    val df = TestGraphs.toDf(spark, TestGraphs.connectedEdges(24, 12, 6))
    val zero = intercept[IllegalArgumentException](AmpcMatching.run(spark, df, 6, caching = false, queryBudget = 0))
    assert(zero.getMessage.contains("query budget 0"))
  }

  test("matching on a single edge takes it") {
    val df = TestGraphs.toDf(spark, Seq((1L, 2L)))
    assert(AmpcMatching.run(spark, df, 1).matching == Set((1L, 2L)))
  }

  test("matching on a triangle has exactly one edge") {
    val tri = Seq((1L, 2L), (2L, 3L), (1L, 3L))
    val df = TestGraphs.toDf(spark, tri)
    val m = AmpcMatching.run(spark, df, 2).matching
    assert(m.size == 1 && Reference.isMaximalMatching(tri, m))
  }

  test("matching on a star has exactly one edge") {
    val star = (1L to 8L).map(i => (0L, i))
    val df = TestGraphs.toDf(spark, star)
    val m = AmpcMatching.run(spark, df, 3).matching
    assert(m.size == 1 && Reference.isMaximalMatching(star, m))
  }

  test("matching on a perfect-matching path matches every other edge") {
    val path = (0 until 9).map(i => (i.toLong, (i + 1).toLong))
    val df = TestGraphs.toDf(spark, path)
    val m = AmpcMatching.run(spark, df, 4).matching
    assert(Reference.isMaximalMatching(path, m))
    assert(m.size >= 3) // maximal matching of P10 has >= ceil(9/3) edges
  }

  test("per-vertex cache stores matched partners symmetrically") {
    val edges = TestGraphs.randomEdges(30, 60, 8)
    val df = TestGraphs.toDf(spark, edges)
    val res = AmpcMatching.run(spark, df, 8)
    res.matching.foreach { case (a, b) => assert(a < b) }
    val vs = res.matching.toSeq.flatMap(p => Seq(p._1, p._2))
    assert(vs.distinct.size == vs.size)
  }
}

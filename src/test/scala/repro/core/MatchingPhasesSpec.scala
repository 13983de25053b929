package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.ref.Reference

class MatchingPhasesSpec extends SparkSpec {

  for (seed <- 1 to 6)
    test(s"phased matching equals the global LF matching (seed $seed)") {
      val edges = TestGraphs.randomEdges(30, 70, seed)
      val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, edges), seed.toLong)
      val expected = Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong))
      assert(res.matching == expected)
    }

  test("phased and direct AMPC matching agree") {
    val edges = TestGraphs.randomEdges(40, 90, 9)
    val df = TestGraphs.toDf(spark, edges)
    val phased = MatchingPhases.run(spark, df, 9)
    val direct = AmpcMatching.run(spark, df, 9)
    assert(phased.matching == direct.matching)
  }

  test("phase count is O(log log Δ)-small") {
    val edges = TestGraphs.randomEdges(60, 200, 4)
    val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, edges), 4)
    assert(res.phases <= 6, s"phases ${res.phases}")
  }

  test("a single low-degree graph finishes in one phase") {
    val path = (0 until 8).map(i => (i.toLong, (i + 1).toLong))
    val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, path), 2)
    assert(res.phases == 1)
    assert(Reference.isMaximalMatching(path, res.matching))
  }

  test("empty-after-phase-1 graphs terminate") {
    val single = Seq((1L, 2L))
    val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, single), 3)
    assert(res.matching == Set((1L, 2L)))
  }

  for (seed <- 1 to 8)
    test(s"a rank prefix below 1 keeps the global LF matching (seed $seed)") {
      val edges = TestGraphs.starAndPathPlus(seed.toLong)
      val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, edges), seed.toLong)
      assert(res.phases > 1)
      assert(res.matching == Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong)))
    }

  test("running out of phases throws instead of returning a partial matching") {
    val e = intercept[IllegalArgumentException](MatchingPhases.run(spark, TestGraphs.toDf(spark, TestGraphs.starAndPath), 1, maxPhases = 1))
    assert(e.getMessage.contains("1 phases"))
  }
}

package repro

import repro.ampc.RunMetrics
import repro.core.{AmpcMatching, AmpcMis, AmpcMsf}

/** With caching on, a run's counters repeat: each task memoizes into a
  * cache of its own, so what it hits does not depend on what other tasks
  * ran before or beside it.
  */
class CachedCountersSpec extends SparkSpec {
  private lazy val plain = TestGraphs.toDf(spark, TestGraphs.randomEdges(300, 1200, 7))
  private lazy val weighted =
    TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(300, 1200, 7), 7))

  test("AMPC MIS, MM and MSF with caching give equal RunMetrics in two runs") {
    def twice(run: => RunMetrics): (RunMetrics, RunMetrics) = (run, run)
    val (mis, mm, msf) = (
      twice(AmpcMis.run(spark, plain, 3, caching = true).metrics),
      twice(AmpcMatching.run(spark, plain, 3, caching = true).metrics),
      twice(AmpcMsf.run(spark, weighted, 3).metrics))
    assert(mis._1.cacheHits > 0 && mm._1.cacheHits > 0, "MIS or MM hit no cached answer")
    assert(mis._1 == mis._2, "MIS")
    assert(mm._1 == mm._2, "MM")
    assert(msf._1 == msf._2, "MSF")
  }
}

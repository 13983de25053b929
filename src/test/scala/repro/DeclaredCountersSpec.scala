package repro

import repro.core.{AmpcMatching, AmpcMis, AmpcMsf, AmpcTwoCycle, KktMsf, MatchingPhases}
import repro.graphs.{GraphGen, GraphOps}
import repro.mpc.{MpcMatching, MpcMis, MpcMsf}

/** Pins the declared Table 3 counters: shuffle counts and the bytes the
  * algorithms declare for them. The expected bytes follow from the input
  * size where the formula is simple, and are fixed constants otherwise.
  */
class DeclaredCountersSpec extends SparkSpec {

  private val seeds = Seq(1L, 2L, 3L)
  private def edges(seed: Long) = TestGraphs.randomEdges(40, 100, seed)

  for (seed <- seeds)
    test(s"AMPC MIS and MM declare one shuffle of m and 2m edge rows (seed $seed)") {
      val es = edges(seed)
      val df = TestGraphs.toDf(spark, es)
      val m = es.size.toLong
      val mis = AmpcMis.run(spark, df, seed).metrics
      assert(mis.shuffles == 1 && mis.shuffleBytes == m * GraphOps.EdgeBytes)
      val mm = AmpcMatching.run(spark, df, seed).metrics
      assert(mm.shuffles == 1 && mm.shuffleBytes == 2 * m * GraphOps.EdgeBytes)
    }

  for (k <- Seq(100L, 300L))
    test(s"AMPC 2-Cycle declares one shuffle of 2m edge rows (two cycles of $k)") {
      val res = AmpcTwoCycle.run(spark, GraphGen.twoCycles(spark, k), seed = 1, sampleInv = 16)
      assert(res.metrics.shuffles == 1 && res.metrics.shuffleBytes == 2 * (2 * k) * GraphOps.EdgeBytes)
    }

  // Recorded from the implementation that sized each shuffle with its
  // own count() job; taking the sizes elsewhere must not move them.
  private val msfBytes = Map(1L -> 9624L, 2L -> 9448L, 3L -> 9544L)
  for (seed <- seeds)
    test(s"AMPC MSF declares five shuffles of fixed bytes (seed $seed)") {
      val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges(seed), seed))
      val res = AmpcMsf.run(spark, df, seed, searchBudget = 8).metrics
      assert(res.shuffles == 5 && res.shuffleBytes == msfBytes(seed))
    }

  // (phases, shuffles, shuffle bytes, KV write bytes), recorded on the phase
  // loop that ran one `AmpcMatching.run` per phase on DataFrames.
  private val phased = Map(1L -> (2, 3L, 20992L, 11512L), 2L -> (2, 3L, 21600L, 12160L), 3L -> (2, 3L, 20288L, 10792L))
  for (seed <- seeds)
    test(s"MatchingPhases declares a round per phase and a prune between phases (seed $seed)") {
      val res = MatchingPhases.run(spark, TestGraphs.toDf(spark, TestGraphs.starAndPathPlus(seed)), seed)
      val m = res.metrics
      assert((res.phases, m.shuffles, m.shuffleBytes, m.kvWriteBytes) == phased(seed))
    }

  // (shuffles, shuffle bytes, KV write bytes) of the two MSF contractions and
  // the F-light stores, recorded on the run that summed the ledgers of two
  // nested `AmpcMsf.run` scopes.
  private val kkt = Map(1L -> (10L, 12936L, 7864L), 2L -> (10L, 11800L, 6832L), 3L -> (10L, 12130L, 7104L))
  for (seed <- seeds)
    test(s"KKT MSF declares two MSF contractions of fixed bytes (seed $seed)") {
      val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges(seed), seed))
      val m = KktMsf.run(spark, df, seed, searchBudget = 8, localThreshold = 16).metrics
      assert((m.shuffles, m.shuffleBytes, m.kvWriteBytes) == kkt(seed))
    }

  private val mpcBytes = Map(1L -> (7040L, 10752L), 2L -> (7616L, 9344L), 3L -> (7504L, 7584L))
  for (seed <- seeds)
    test(s"MPC MIS and MM declare fixed bytes per phase (seed $seed)") {
      val df = TestGraphs.toDf(spark, edges(seed))
      val mis = MpcMis.run(spark, df, seed, localThreshold = 0)
      val mm = MpcMatching.run(spark, df, seed, localThreshold = 0)
      assert(mis.metrics.shuffles == 2L * mis.phases && mm.metrics.shuffles == 2L * mm.phases)
      assert((mis.metrics.shuffleBytes, mm.metrics.shuffleBytes) == mpcBytes(seed))
    }

  // (phases, bytes), recorded on the typed-Dataset Boruvka phases.
  private val boruvka = Map(1L -> (11, 56832L), 2L -> (14, 64416L), 3L -> (13, 60576L))
  for (seed <- seeds)
    test(s"MPC MSF declares three shuffles per phase of fixed bytes (seed $seed)") {
      val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(edges(seed), seed))
      val res = MpcMsf.run(spark, df, seed, localThreshold = 0)
      assert(res.metrics.shuffles == 3L * res.phases)
      assert((res.phases, res.metrics.shuffleBytes) == boruvka(seed))
    }

  test("an empty edge list declares zero bytes and does not throw") {
    val empty = TestGraphs.toDf(spark, Seq.empty)
    val weighted = TestGraphs.toWeightedDf(spark, Seq.empty)
    val all = Seq(
      AmpcMis.run(spark, empty, 1).metrics,
      AmpcMatching.run(spark, empty, 1).metrics,
      AmpcTwoCycle.run(spark, empty, 1).metrics,
      AmpcMsf.run(spark, weighted, 1).metrics,
    )
    all.foreach(r => assert(r.shuffleBytes == 0))
  }
}

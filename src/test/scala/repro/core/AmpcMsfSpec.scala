package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graphs.GraphOps
import repro.ref.Reference

class AmpcMsfSpec extends SparkSpec {

  private def check(edges: Seq[(Long, Long, Double)], seed: Long, budget: Int = 8): Unit = {
    val df = TestGraphs.toWeightedDf(spark, edges)
    val res = AmpcMsf.run(spark, df, seed, searchBudget = budget)
    val expected = Reference.kruskal(edges)
    assert(res.msf.toSet == expected.map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }.toSet,
      s"got ${res.msf.size} vs ${expected.size} edges")
  }

  for (seed <- 1 to 12)
    test(s"AMPC MSF equals Kruskal on random weighted graphs (seed $seed)") {
      check(TestGraphs.withWeights(TestGraphs.randomEdges(35, 70, seed), seed), seed.toLong)
    }

  for (budget <- Seq(2, 4, 16, 1000))
    test(s"result is budget-invariant (searchBudget=$budget)") {
      val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(30, 25, 5), 5)
      check(edges, 3, budget)
    }

  for (seed <- 1 to 4)
    test(s"MSF with degree weights (the paper's weighting) (seed $seed)") {
      val base = TestGraphs.toDf(spark, TestGraphs.randomEdges(30, 60, seed))
      val weighted = GraphOps.withDegreeWeights(base)
      val collected = GraphOps.collectWeighted(weighted)
      val res = AmpcMsf.run(spark, weighted, seed.toLong, searchBudget = 8)
      val expected = Reference.kruskal(collected)
      assert(TestGraphs.weightKey(res.msf) == TestGraphs.weightKey(expected))
    }

  test("uses exactly five shuffles (Table 3)") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(30, 60, 9), 9))
    assert(AmpcMsf.run(spark, df, 9).metrics.shuffles == 5)
  }

  test("contraction shrinks the vertex count (Lemma 3.3 direction)") {
    val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(200, 100, 11), 11)
    val df = TestGraphs.toWeightedDf(spark, edges)
    val res = AmpcMsf.run(spark, df, 11, searchBudget = 16)
    val n = TestGraphs.vertices(edges.map(e => (e._1, e._2))).size
    assert(res.nContracted < n / 2, s"contracted ${res.nContracted} of $n")
  }

  test("MSF of a disconnected graph is a forest per component") {
    val c1 = TestGraphs.withWeights(TestGraphs.connectedEdges(12, 6, 1), 1)
    val c2 = TestGraphs.withWeights(TestGraphs.connectedEdges(10, 5, 2).map { case (u, v) => (u + 100, v + 100) }, 2)
    check(c1 ++ c2, 13)
  }

  test("MSF of a tree is the tree itself") {
    val tree = (1 until 20).map(i => (i.toLong / 2, i.toLong))
    val edges = TestGraphs.withWeights(tree, 3)
    check(edges, 14)
  }

  test("MSF of a cycle drops exactly the heaviest edge") {
    val k = 12
    val cyc = (0 until k).map(i => (math.min(i, (i + 1) % k).toLong, math.max(i, (i + 1) % k).toLong))
    val edges = TestGraphs.withWeights(cyc, 4)
    val heaviest = edges.maxBy(_._3)
    val df = TestGraphs.toWeightedDf(spark, edges)
    val res = AmpcMsf.run(spark, df, 15)
    assert(res.msf.size == k - 1)
    assert(!res.msf.contains(heaviest))
  }

  test("mapping is a function of every vertex") {
    val edges = TestGraphs.withWeights(TestGraphs.randomEdges(40, 80, 16), 16)
    val df = TestGraphs.toWeightedDf(spark, edges)
    val res = AmpcMsf.run(spark, df, 16)
    val n = TestGraphs.vertices(edges.map(e => (e._1, e._2))).size
    assert(res.mapping.count() == n)
    assert(res.mapping.select("id").distinct().count() == n)
  }

  test("query totals are near-linear (Lemma 3.4 direction)") {
    val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(300, 100, 17), 17)
    val df = TestGraphs.toWeightedDf(spark, edges)
    val res = AmpcMsf.run(spark, df, 17, searchBudget = 12)
    val n = 300
    assert(res.metrics.kvQueries < 40L * n * math.log(n.toDouble).toLong)
  }
}

class TruncatedPrimSpec extends SparkSpec {

  private def adjOf(edges: Seq[(Long, Long, Double)]): Map[Long, WeightAdj] =
    edges
      .flatMap { case (u, v, w) => Seq((u, v, w), (v, u, w)) }
      .groupBy(_._1)
      .map { case (v, es) =>
        val sorted = es.sortBy { case (_, u, w) => (w, math.min(v, u), math.max(v, u)) }
        v -> WeightAdj(sorted.map(_._2).toArray, sorted.map(_._3).toArray)
      }

  private def runSearch(edges: Seq[(Long, Long, Double)], v: Long, seed: Long, budget: Int) = {
    val metrics = new repro.ampc.Metrics
    val dht = repro.ampc.DhtRegistry.create[WeightAdj]("tp", metrics)
    val adj = adjOf(edges)
    adj.foreach { case (k, a) => dht.put(k, a, 1) }
    val out = TruncatedPrim.search(v, adj(v), seed, dht, metrics, budget).toList
    dht.close()
    out
  }

  for (seed <- 1 to 6)
    test(s"all emitted edges belong to the global MSF (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(25, 15, seed), seed)
      val msf = Reference.kruskal(edges).map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }.toSet
      TestGraphs.vertices(edges.map(e => (e._1, e._2))).foreach { v =>
        val out = runSearch(edges, v, seed.toLong, budget = 6)
        out.filter(_.kind == 0).foreach(e => assert(msf.contains((e.a, e.b, e.w)), s"edge from $v"))
      }
    }

  test("emitted visits all have lower priority than the visitor") {
    val seed = 3L
    val edges = TestGraphs.withWeights(TestGraphs.connectedEdges(20, 10, 3), 3)
    TestGraphs.vertices(edges.map(e => (e._1, e._2))).foreach { v =>
      val out = runSearch(edges, v, seed, budget = 8)
      out.filter(_.kind == 1).foreach { s =>
        assert(s.b == v)
        assert(
          Priorities.precedes(
            Priorities.vertexRank(v, seed), v,
            Priorities.vertexRank(s.a, seed), s.a))
      }
    }
  }

  test("budget truncation caps visited count") {
    val edges = TestGraphs.withWeights((0 until 50).map(i => (i.toLong, (i + 1).toLong)), 1)
    val v = 25L
    val out = runSearch(edges, v, seed = 1, budget = 4)
    assert(out.count(_.kind == 1) <= 5)
  }

  test("full exploration of a small component emits its whole MSF") {
    val edges = TestGraphs.withWeights(Seq((0L, 1L), (1L, 2L), (0L, 2L)), 2)
    // pick the highest-priority vertex so rule (3) never fires
    val seed = 5L
    val best = Seq(0L, 1L, 2L).minBy(v => (Priorities.vertexRank(v, seed), v))
    val out = runSearch(edges, best, seed, budget = 100)
    assert(out.count(_.kind == 0) == 2) // spanning tree of a triangle
  }
}

class PointerJumpSpec extends SparkSpec {
  test("walks parent chains to the root with memoization") {
    val metrics = new repro.ampc.Metrics
    val dht = repro.ampc.DhtRegistry.create[Long]("pj", metrics)
    val cache = repro.ampc.KvCache.create[Long]("pjc", enabled = true, metrics)
    // chain 5 -> 4 -> 3 -> 2 -> 1 (root), star 10 -> 1
    Seq((5L, 4L), (4L, 3L), (3L, 2L), (2L, 1L), (10L, 1L)).foreach { case (c, p) => dht.put(c, p, 1) }
    assert(PointerJump.root(5L, dht, cache, metrics) == 1L)
    assert(PointerJump.root(10L, dht, cache, metrics) == 1L)
    assert(PointerJump.root(1L, dht, cache, metrics) == 1L)
    val q1 = metrics.value.kvQueries
    assert(PointerJump.root(4L, dht, cache, metrics) == 1L) // memoized
    assert(metrics.value.kvQueries == q1)
    dht.close(); cache.close()
  }

  test("chain depth is recorded") {
    val metrics = new repro.ampc.Metrics
    val dht = repro.ampc.DhtRegistry.create[Long]("pj2", metrics)
    val cache = repro.ampc.KvCache.create[Long]("pjc2", enabled = false, metrics)
    (1L until 20L).foreach(i => dht.put(i + 1, i, 1))
    assert(PointerJump.root(20L, dht, cache, metrics) == 1L)
    assert(metrics.value.maxChainDepth >= 19)
    dht.close(); cache.close()
  }
}

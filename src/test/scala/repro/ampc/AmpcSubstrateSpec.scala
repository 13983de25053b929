package repro.ampc

import org.scalatest.funsuite.AnyFunSuite

/** A copy of `x` made as a task's closure would receive it. */
private object Serialized {
  def apply[T](x: T): T = {
    val bo = new java.io.ByteArrayOutputStream()
    val oo = new java.io.ObjectOutputStream(bo)
    oo.writeObject(x); oo.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bo.toByteArray)).readObject().asInstanceOf[T]
  }
}

class MetricsSpec extends AnyFunSuite {
  test("fresh ledgers are independent") {
    val a = Metrics.fresh("a"); val b = Metrics.fresh("b")
    a.shuffle(100); b.kvQuery(5)
    assert(a.snapshot == RunMetrics(shuffles = 1, shuffleBytes = 100))
    assert(b.snapshot == RunMetrics(kvQueries = 1, kvReadBytes = 5))
    a.close(); b.close()
  }

  test("chain records the maximum dependent depth") {
    val m = Metrics.fresh("c")
    m.chain(3); m.chain(10); m.chain(5)
    assert(m.snapshot.maxChainDepth == 10)
    m.close()
  }

  test("RunMetrics addition sums counters and maxes chains") {
    val a = RunMetrics(shuffles = 1, shuffleBytes = 10, kvQueries = 2, maxChainDepth = 4)
    val b = RunMetrics(shuffles = 2, shuffleBytes = 5, cacheHits = 7, maxChainDepth = 9)
    val c = a + b
    assert(c.shuffles == 3 && c.shuffleBytes == 15 && c.kvQueries == 2)
    assert(c.cacheHits == 7 && c.maxChainDepth == 9)
  }

  test("counters are thread-safe under concurrent updates") {
    val m = Metrics.fresh("t")
    val threads = (1 to 8).map(_ => new Thread(() => (1 to 1000).foreach(_ => m.kvQuery(1))))
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(m.snapshot.kvQueries == 8000)
    m.close()
  }

  test("a handle to a closed ledger throws, naming the id") {
    val m = Metrics.fresh("closed")
    val copy = Serialized(m)
    m.close()
    val e = intercept[IllegalStateException](copy.shuffle(1))
    assert(e.getMessage.contains(m.id))
  }
}

class DhtSpec extends AnyFunSuite {
  test("put/get roundtrip with byte accounting") {
    val m = Metrics.fresh("dht1")
    val d = DhtRegistry.create[Array[Long]]("t", m)
    d.put(1L, Array(10L, 20L), 16)
    assert(d.get(1L).get.toSeq == Seq(10L, 20L))
    val s = m.snapshot
    assert(s.kvWriteBytes == 16 && s.kvQueries == 1 && s.kvReadBytes == 16)
    d.close(); m.close()
  }

  test("miss counts one query of one byte") {
    val m = Metrics.fresh("dht2")
    val d = DhtRegistry.create[String]("t", m)
    assert(d.get(99L).isEmpty)
    assert(m.snapshot.kvQueries == 1 && m.snapshot.kvReadBytes == 1)
    d.close(); m.close()
  }

  test("require counts a hit as get does and throws on a miss") {
    val m = Metrics.fresh("dht6")
    val d = DhtRegistry.create[String]("t", m)
    d.put(1L, "x", 4)
    assert(d.require(1L) == "x")
    assert(m.snapshot.kvQueries == 1 && m.snapshot.kvReadBytes == 4)
    val e = intercept[NoSuchElementException](d.require(99L))
    assert(e.getMessage.contains(d.id) && e.getMessage.contains("99"))
    d.close(); m.close()
  }

  test("peek does not charge metrics") {
    val m = Metrics.fresh("dht3")
    val d = DhtRegistry.create[String]("t", m)
    d.put(1L, "x", 1)
    assert(d.peek(1L).contains("x"))
    assert(m.snapshot.kvQueries == 0)
    d.close(); m.close()
  }

  test("stores are isolated by id") {
    val m = Metrics.fresh("dht4")
    val a = DhtRegistry.create[String]("t", m)
    val b = DhtRegistry.create[String]("t", m)
    a.put(1L, "a", 1)
    assert(b.get(1L).isEmpty)
    a.close(); b.close(); m.close()
  }

  test("handles survive serialization (closure capture)") {
    val m = Metrics.fresh("dht5")
    val d = DhtRegistry.create[String]("t", m)
    d.put(7L, "v", 1)
    assert(Serialized(d).get(7L).contains("v"))
    d.close(); m.close()
  }

  test("a read through a closed store throws, naming the id") {
    val m = Metrics.fresh("dht7")
    val d = DhtRegistry.create[String]("t", m)
    d.put(7L, "v", 1)
    val copy = Serialized(d)
    d.close()
    val e = intercept[IllegalStateException](copy.get(7L))
    assert(e.getMessage.contains(d.id))
    intercept[IllegalStateException](new Dht[String]("never-created", m).get(7L))
    m.close()
  }
}

class KvCacheSpec extends AnyFunSuite {
  test("enabled cache stores and counts hits") {
    val m = Metrics.fresh("kc1")
    val c = KvCache.create[Boolean]("t", enabled = true, m)
    assert(c.get(1L).isEmpty)
    c.put(1L, true)
    assert(c.get(1L).contains(true))
    assert(m.snapshot.cacheHits == 1)
    c.close(); m.close()
  }

  test("disabled cache always misses and never stores") {
    val m = Metrics.fresh("kc2")
    val c = KvCache.create[Boolean]("t", enabled = false, m)
    c.put(1L, true)
    assert(c.get(1L).isEmpty)
    assert(m.snapshot.cacheHits == 0 && c.size == 0)
    c.close(); m.close()
  }

  test("a handle to a closed cache throws, naming the id") {
    val m = Metrics.fresh("kc3")
    val c = KvCache.create[Boolean]("t", enabled = true, m)
    val copy = Serialized(c)
    c.close()
    val e = intercept[IllegalStateException](copy.get(1L))
    assert(e.getMessage.contains(c.id))
    m.close()
  }
}

class CostModelSpec extends AnyFunSuite {
  private val m = RunMetrics(
    shuffles = 2, shuffleBytes = 2_000_000, kvQueries = 100_000,
    kvReadBytes = 1_000_000, kvWriteBytes = 500_000, maxChainDepth = 100)

  test("TCP is slower than RDMA on query-heavy runs") {
    assert(CostModel.Tcp.seconds(m) > CostModel.Rdma.seconds(m))
  }

  test("single-threaded is slower than multithreaded (Figure 4 ablation)") {
    assert(CostModel.singleThreaded(CostModel.Rdma).seconds(m) > CostModel.Rdma.seconds(m))
  }

  test("shuffle-only metrics cost the same in every environment") {
    val s = RunMetrics(shuffles = 5, shuffleBytes = 10_000_000)
    assert(CostModel.Rdma.seconds(s) == CostModel.Mpc.seconds(s))
    assert(CostModel.Tcp.seconds(s) == CostModel.Mpc.seconds(s))
  }

  test("components decompose additively") {
    val c = CostModel.Rdma
    assert(math.abs(c.seconds(m) - (c.shuffleSeconds(m) + c.kvSeconds(m))) < 1e-12)
  }

  test("more shuffles cost more") {
    val a = RunMetrics(shuffles = 1, shuffleBytes = 1000)
    val b = RunMetrics(shuffles = 10, shuffleBytes = 10000)
    assert(CostModel.Mpc.seconds(b) > CostModel.Mpc.seconds(a))
  }

  test("latency binds on long dependent chains") {
    val walk = RunMetrics(kvQueries = 1000, maxChainDepth = 1000)
    val ratio = CostModel.Tcp.seconds(walk) / CostModel.Rdma.seconds(walk)
    assert(ratio > 5.0) // ~10x latency gap on a pure chain workload
  }
}

/** Every algorithm run closes the DHT stores it opens: a store left open
  * holds its entries in `DhtRegistry` for the life of the JVM.
  */
class DhtLifetimeSpec extends repro.SparkSpec {
  import repro.TestGraphs
  import repro.core._

  private lazy val weighted =
    TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(40, 120, 3), 3))
  private lazy val plain = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 120, 3))

  private val runs: Seq[(String, () => Any)] = Seq(
    "KKT MSF above its local threshold" -> (() => KktMsf.run(spark, weighted, 3, searchBudget = 8, localThreshold = 16)),
    "AMPC MSF" -> (() => AmpcMsf.run(spark, weighted, 3)),
    "AMPC MIS" -> (() => AmpcMis.run(spark, plain, 3)),
    "AMPC MM" -> (() => AmpcMatching.run(spark, plain, 3)),
    "AMPC 2-Cycle" -> (() => AmpcTwoCycle.run(spark, repro.graphs.GraphGen.twoCycles(spark, 50), 3, 4)),
    "AMPC connectivity" -> (() => AmpcConnectivity.run(spark, plain, 3)),
  )

  for ((name, run) <- runs)
    test(s"$name closes every DHT store it opens") {
      val before = DhtRegistry.stores.size
      run()
      assert(DhtRegistry.stores.size == before)
    }
}

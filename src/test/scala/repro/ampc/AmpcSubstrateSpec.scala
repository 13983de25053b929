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
    val a = new Metrics; val b = new Metrics
    a.shuffle(100); b.kvQuery(5)
    assert(a.value == RunMetrics(shuffles = 1, shuffleBytes = 100))
    assert(b.value == RunMetrics(kvQueries = 1, kvReadBytes = 5))
  }

  test("chain records the maximum dependent depth") {
    val m = new Metrics
    m.chain(3); m.chain(10); m.chain(5)
    assert(m.value.maxChainDepth == 10)
  }

  test("merging two copies adds the sums and takes the longer chain") {
    val a = new Metrics; val b = new Metrics
    a.shuffle(100); a.kvQuery(5); a.cacheHit(); a.chain(7)
    b.kvQuery(3); b.kvWrite(16); b.chain(4)
    a.merge(b)
    assert(a.value == RunMetrics(shuffles = 1, shuffleBytes = 100, kvQueries = 2, kvReadBytes = 8,
      kvWriteBytes = 16, cacheHits = 1, maxChainDepth = 7))
    val zero = a.copyAndReset()
    assert(zero.isZero && zero.value == RunMetrics() && !a.isZero)
  }
}

/** A ledger registered on the shared session, as every kit registers its
  * own: an unregistered ledger refuses to serialize.
  */
private object Registered {
  def apply(): Metrics = { val m = new Metrics; repro.SparkSpec.shared.sparkContext.register(m); m }
}

class DhtSpec extends AnyFunSuite {
  test("put/get roundtrip with byte accounting") {
    val m = new Metrics
    val d = DhtRegistry.create[Array[Long]]("t", m)
    d.put(1L, Array(10L, 20L), 16)
    assert(d.get(1L).get.toSeq == Seq(10L, 20L))
    val s = m.value
    assert(s.kvWriteBytes == 16 && s.kvQueries == 1 && s.kvReadBytes == 16)
    d.close()
  }

  test("miss counts one query of one byte") {
    val m = new Metrics
    val d = DhtRegistry.create[String]("t", m)
    assert(d.get(99L).isEmpty)
    assert(m.value.kvQueries == 1 && m.value.kvReadBytes == 1)
    d.close()
  }

  test("require counts a hit as get does and throws on a miss") {
    val m = new Metrics
    val d = DhtRegistry.create[String]("t", m)
    d.put(1L, "x", 4)
    assert(d.require(1L) == "x")
    assert(m.value.kvQueries == 1 && m.value.kvReadBytes == 4)
    val e = intercept[NoSuchElementException](d.require(99L))
    assert(e.getMessage.contains(d.id) && e.getMessage.contains("99"))
    d.close()
  }

  test("stores are isolated by id") {
    val m = new Metrics
    val a = DhtRegistry.create[String]("t", m)
    val b = DhtRegistry.create[String]("t", m)
    a.put(1L, "a", 1)
    assert(b.get(1L).isEmpty)
    a.close(); b.close()
  }

  test("handles survive serialization (closure capture)") {
    val d = DhtRegistry.create[String]("t", Registered())
    d.put(7L, "v", 1)
    assert(Serialized(d).get(7L).contains("v"))
    d.close()
  }

  test("a read through a closed store throws, naming the id") {
    val m = Registered()
    val d = DhtRegistry.create[String]("t", m)
    d.put(7L, "v", 1)
    val copy = Serialized(d)
    d.close()
    val e = intercept[IllegalStateException](copy.get(7L))
    assert(e.getMessage.contains(d.id))
    intercept[IllegalStateException](new Dht[String]("never-created", m).get(7L))
  }
}

class KvCacheSpec extends AnyFunSuite {
  test("enabled cache stores and counts hits") {
    val m = new Metrics
    val c = new KvCache[Boolean](enabled = true, m)
    assert(c.get(1L).isEmpty)
    c.put(1L, true)
    assert(c.get(1L).contains(true))
    assert(m.value.cacheHits == 1)
  }

  test("disabled cache always misses and never stores") {
    val m = new Metrics
    val c = new KvCache[Boolean](enabled = false, m)
    c.put(1L, true)
    assert(c.get(1L).isEmpty)
    assert(m.value.cacheHits == 0 && c.size == 0)
  }

  test("a deserialized copy starts empty and shares no entry with the original") {
    val c = new KvCache[Boolean](enabled = true, Registered())
    c.put(1L, true)
    val copy = Serialized(c)
    assert(copy.size == 0 && copy.get(1L).isEmpty)
    copy.put(2L, false)
    assert(c.size == 1 && c.get(2L).isEmpty && c.get(1L).contains(true))
  }

  test("close empties the cache") {
    val c = KvCache.create[Boolean]("t", enabled = true, new Metrics)
    c.put(1L, true)
    c.close()
    assert(c.size == 0 && c.get(1L).isEmpty)
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

/** Every algorithm run closes the DHT stores it opens, whether it returns
  * or throws: a store left open holds its entries in the registry for the
  * life of the JVM.
  */
class DhtLifetimeSpec extends repro.SparkSpec {
  import repro.TestGraphs
  import repro.core._
  import repro.mpc._

  private lazy val weighted =
    TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(40, 120, 3), 3))
  private lazy val plain = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 120, 3))
  private lazy val starAndPath = TestGraphs.toDf(spark, TestGraphs.starAndPath)

  private val dhtRuns: Seq[(String, () => Any)] = Seq(
    "KKT MSF above its local threshold" -> (() => KktMsf.run(spark, weighted, 3, searchBudget = 8, localThreshold = 16)),
    "AMPC MSF" -> (() => AmpcMsf.run(spark, weighted, 3)),
    "AMPC MIS" -> (() => AmpcMis.run(spark, plain, 3)),
    "AMPC MM" -> (() => AmpcMatching.run(spark, plain, 3)),
    "AMPC 2-Cycle" -> (() => AmpcTwoCycle.run(spark, repro.graphs.GraphGen.twoCycles(spark, 50), 3, 4)),
    "AMPC connectivity" -> (() => AmpcConnectivity.run(spark, plain, 3)),
    "MatchingPhases" -> (() => MatchingPhases.run(spark, starAndPath, 3)),
  )

  private val throwingRuns: Seq[(String, () => Any)] = Seq(
    "AMPC MIS with a query budget of 0" -> (() => AmpcMis.run(spark, plain, 3, queryBudget = 0)),
    "MPC MIS out of phases" -> (() => MpcMis.run(spark, plain, 3, localThreshold = 0, maxPhases = 1)),
    "MatchingPhases out of phases" -> (() => MatchingPhases.run(spark, starAndPath, 1, maxPhases = 1)),
  )

  private def closesAll(run: => Any): Unit = {
    val before = DhtRegistry.size
    run
    assert(DhtRegistry.size == before, "stores open")
  }

  for ((name, run) <- dhtRuns)
    test(s"$name closes every DHT store it opens")(closesAll(run()))

  for ((name, run) <- throwingRuns)
    test(s"$name closes what it opened when it throws") {
      closesAll(intercept[IllegalArgumentException](run()))
    }
}

package perfbench

import java.util.concurrent.{CountDownLatch, Executors, TimeUnit}
import org.apache.spark.sql.SparkSession
import repro.ampc.{Dht, DhtRegistry, KvCache, Metrics}
import repro.core.{AmpcMsf, PointerJump, Priorities, SearchOut, TruncatedPrim, WeightAdj}
import repro.ref.Reference
import scala.collection.mutable

/** Direct timed calls into public layer functions, each on the workload's
  * own adjacency. Every probe repeats its sweep until it has run for at
  * least `minNs`, and reports time per operation.
  */
final class Probes(spark: SparkSession, g: Graph, seed: Long, threads: Int) {
  private val minNs = 300L * 1000 * 1000
  private val metrics = Metrics.fresh("perfbench-probe")

  private val adj: mutable.LongMap[Array[Long]] = {
    val m = mutable.LongMap.empty[mutable.ArrayBuilder[Long]]
    g.pairs.foreach { case (u, v) =>
      m.getOrElseUpdate(u, Array.newBuilder[Long]) += v
      m.getOrElseUpdate(v, Array.newBuilder[Long]) += u
    }
    m.map { case (k, b) => k -> b.result().sorted }
  }

  /** Vertex ids in a seeded random order, so lookups do not follow insertion order. */
  private val keys: Array[Long] = {
    val ks = adj.keys.toArray.sorted
    val rnd = new scala.util.Random(seed)
    rnd.shuffle(ks.toSeq).toArray
  }

  /** Repeats `sweep` (which does `ops` operations) for at least `minNs`; ns per op. */
  private def perOp(ops: Long)(sweep: => Unit): Double = {
    sweep // one untimed sweep to load classes and fill caches
    var reps = 0L
    val t0 = System.nanoTime()
    while (reps < 3 || System.nanoTime() - t0 < minNs) { sweep; reps += 1 }
    (System.nanoTime() - t0).toDouble / (reps * ops)
  }

  private var sink = 0L

  def dhtPutNs: Double = perOp(keys.length.toLong) {
    val d = DhtRegistry.create[Array[Long]]("perfbench-put", metrics)
    keys.foreach(k => { val a = adj(k); d.put(k, a, 8 * a.length + 8) })
    d.close()
  }

  private lazy val filled: Dht[Array[Long]] = {
    val d = DhtRegistry.create[Array[Long]]("perfbench-get", metrics)
    keys.foreach(k => { val a = adj(k); d.put(k, a, 8 * a.length + 8) })
    d
  }

  def dhtGetNs: Double = perOp(keys.length.toLong) {
    var i = 0
    while (i < keys.length) { sink += filled.get(keys(i)).fold(0)(_.length); i += 1 }
  }

  /** `threads` threads each sweep every key at once; time per lookup as one thread sees it. */
  def dhtGetNsParallel: Double = {
    val pool = Executors.newFixedThreadPool(threads)
    try perOp(keys.length.toLong) {
      val start = new CountDownLatch(1)
      val done = new CountDownLatch(threads)
      (0 until threads).foreach { t =>
        pool.execute { () =>
          start.await()
          var local = 0L
          var i = 0
          while (i < keys.length) {
            local += filled.get(keys((i + t * keys.length / threads) % keys.length)).fold(0)(_.length)
            i += 1
          }
          synchronized(sink += local)
          done.countDown()
        }
      }
      start.countDown()
      done.await()
    }
    finally { pool.shutdown(); pool.awaitTermination(10, TimeUnit.SECONDS) }
  }

  /** Weight-sorted adjacency in the order `AmpcMsf` stores it. */
  private lazy val weightAdj: Map[Long, WeightAdj] =
    g.triples
      .flatMap { case (u, v, w) => Seq((u, v, w), (v, u, w)) }
      .groupBy(_._1)
      .map { case (v, es) =>
        val sorted = es.map(e => (e._2, e._3)).sortBy { case (u, w) => (w, math.min(v, u), math.max(v, u)) }
        v -> WeightAdj(sorted.map(_._1).toArray, sorted.map(_._2).toArray)
      }

  private lazy val weightDht: Dht[WeightAdj] = {
    val d = DhtRegistry.create[WeightAdj]("perfbench-wadj", metrics)
    weightAdj.foreach { case (v, a) => d.put(v, a, 16 * a.length + 8) }
    d
  }

  private val searchBudget = 64

  private def searchAll(): Seq[SearchOut] =
    keys.toSeq.flatMap(v => TruncatedPrim.search(v, weightAdj(v), seed, weightDht, metrics, searchBudget))

  /** Truncated Prim from every vertex, µs per search. */
  def primSearchUs: Double = perOp(keys.length.toLong)(sink += searchAll().size) / 1e3

  /** `AmpcMsf`'s parent table: each visited vertex points at its highest-priority visitor. */
  private lazy val parentDht: Dht[Long] = {
    val d = DhtRegistry.create[Long]("perfbench-parent", metrics)
    searchAll().filter(_.kind == 1).groupBy(_.a).foreach { case (child, vs) =>
      val best = vs.map(_.b).reduceLeft { (x, y) =>
        if (Priorities.precedes(Priorities.vertexRank(x, seed), x, Priorities.vertexRank(y, seed), y)) x else y
      }
      d.put(child, best, 16)
    }
    d
  }

  /** Root of every vertex through the parent table, with a fresh memo per sweep; ns per root. */
  def pointerJumpNs: Double = {
    val order = keys.sorted
    perOp(order.length.toLong) {
      val cache = KvCache.create[Long]("perfbench-root", enabled = true, metrics)
      order.foreach(v => sink += PointerJump.root(v, parentDht, cache, metrics))
      cache.close()
    }
  }

  /** The driver's local solve: Kruskal on `AmpcMsf`'s contracted graph, ms per solve. */
  def localSolveMs: (Double, Int) = {
    val contracted = AmpcMsf.run(spark, g.weighted, seed).contracted.map(c => (c._1, c._2, c._5))
    (perOp(1L)(sink += Reference.kruskal(contracted).size) / 1e6, contracted.size)
  }

  def close(): Unit = {
    filled.close(); weightDht.close(); parentDht.close(); metrics.close()
  }

  /** Keeps the JIT from discarding probe results. */
  def checksum: Long = sink
}

package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.graphs.{CoPartitioned, GraphOps}
import repro.ref.Reference

/** One walk's outcome: it started at sample `from`, stepped first onto
  * `firstStep`, passed `interior` unsampled vertices and stopped at
  * sample `to`.
  */
final case class Segment(from: Long, to: Long, interior: Long, firstStep: Long)

/** AMPC 1-vs-2-Cycle (§5.6) — the canonical problem separating AMPC from
  * MPC under the 1-vs-2-Cycle conjecture.
  *
  * The input is promised to be a disjoint union of cycles. The algorithm
  * samples each vertex with probability 1/`sampleInv`, writes the
  * adjacency to the DHT (the single shuffle), walks outward from every
  * sampled vertex through the DHT until the next sampled vertex, and
  * solves the contracted graph on the sampled vertices on one machine.
  *
  * The paper samples with probability 1/1024 on 10^8–10^10-vertex cycles;
  * at laptop scale the default is 1/64. If some cycle contains no sample
  * at all (whp impossible at the evaluated sizes) its vertices are never
  * visited; this is detected by comparing the covered vertex mass against
  * n, in which case the component count is reported as a lower bound
  * (`exact = false`).
  */
object AmpcTwoCycle {

  final case class Result(
      numCycles: Long,
      exact: Boolean,
      sampled: Long,
      covered: Long,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      sampleInv: Int = 64,
  ): Result = CoPartitioned.run(spark) { kit =>
    val metrics = kit.metrics
    val dht = kit.dht[Array[Long]]("2cyc-adj")
    val (s2, inv) = (Priorities.splitmix64(seed), sampleInv.toLong)
    def isSampled(v: Long): Boolean =
      java.lang.Long.remainderUnsigned(Priorities.splitmix64(v ^ s2), inv) == 0L

    // The single shuffle: per-vertex adjacency, written to the DHT. The
    // write counts the n vertices, sums their degrees to 2m and picks
    // the samples.
    val adj = kit.adjacency(edges)
    val (n, twoM, picked) = AmpcRound.write(kit, adj, dht, 8)(_.length, r => Option.when(isSampled(r._1))(r._1))
    metrics.shuffle(twoM * GraphOps.EdgeBytes)

    // Deterministic fallback so the walk phase has somewhere to start.
    val sampledIds = if (picked.isEmpty && n > 0) Array(kit.collect(adj.mapPartitions(_.map(_._1))).min) else picked.sorted
    val forced = sampledIds.toSet
    def stopAt(v: Long): Boolean = isSampled(v) || forced(v)

    // Walk outward from every sample, in both directions, through the DHT.
    val segments = kit.collect(spark.sparkContext
      .parallelize(sampledIds.toIndexedSeq)
      .mapPartitions { it =>
        it.flatMap { v =>
          val nbrs = dht.require(v)
          nbrs.iterator.map { first =>
            var prev = v
            var cur = first
            var interior = 0L
            var depth = 1L
            while (!stopAt(cur)) {
              interior += 1
              val a = dht.require(cur)
              depth += 1
              val next = if (a.length < 2) prev else if (a(0) == prev) a(1) else a(0)
              prev = cur
              cur = next
            }
            metrics.chain(depth)
            Segment(v, cur, interior, first)
          }
        }
      })

    // Every segment between two *distinct* samples is discovered once
    // from each end; keep the walk starting at the smaller sample. Both
    // of that sample's walks survive, so a two-sample cycle keeps both
    // of its arcs. A walk returning to its own start (from == to) means
    // its cycle contains exactly one sample; both directions describe
    // the same full cycle, so keep one per sample.
    val crossOnce = segments.filter(s => s.from < s.to)
    val selfOnce = segments
      .filter(s => s.from == s.to)
      .groupBy(_.from)
      .map(_._2.head)
      .toSeq

    val uf = new Reference.UnionFind()
    sampledIds.foreach(v => uf.find(v))
    (crossOnce ++ selfOnce).foreach(s => uf.union(s.from, s.to))
    val comps = sampledIds.map(uf.find).distinct.length.toLong

    val covered =
      crossOnce.map(_.interior).sum + selfOnce.map(_.interior).sum + sampledIds.length.toLong
    val exact = covered >= n
    val num = comps + (if (exact) 0L else 1L)
    Result(num, exact, sampledIds.length.toLong, math.min(covered, n), metrics.value)
  }
}

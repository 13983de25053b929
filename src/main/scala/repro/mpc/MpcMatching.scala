package repro.mpc

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.core.Priorities
import repro.graphs.CoPartitioned
import repro.ref.Reference
import scala.collection.mutable

/** MPC Maximal Matching — the rootset-based algorithm of §5.4, "very
  * similar to our MIS algorithm in the MPC setting".
  *
  * Each phase adds every edge whose rank precedes the rank of all edges
  * adjacent to it (a local minimum of the line graph), then removes
  * matched vertices with their incident edges. Two shuffles per phase:
  * exchanging per-endpoint minimum ranks so both endpoints of a candidate
  * edge can agree it is matched, and pruning the matched vertices out of
  * the surviving adjacency lists. Below `localThreshold` edges the
  * residual graph is finished on one machine.
  *
  * Computes the same lexicographically-first matching as
  * [[repro.core.AmpcMatching]] (same [[Priorities]] ranks).
  * On [[CoPartitioned]], a phase's one Spark action sizes the graph and
  * collects the matched pairs. Edge ranks are distinct and the graph has
  * no loops, so a vertex is matched iff its minimum edge is also the other
  * endpoint's minimum, which it learns from the ranks its neighbors send.
  */
object MpcMatching {

  final case class Result(
      matching: Set[(Long, Long)],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = CoPartitioned.run(spark, "mpc-mm") { kit =>
    val metrics = kit.metrics
    // Adjacency lists carrying edge ranks (input formatting, uncounted).
    var adj: RDD[(Long, (Array[Long], Array[Long]))] = kit.checkpoint(kit.adjacency(edges).mapPartitions(
      _.map { case (v, ns) => (v, (ns, ns.map(u => Priorities.edgeRank(v, u, seed)))) }, preservesPartitioning = true))

    val matched = mutable.Set.empty[(Long, Long)]
    var phases = 0
    var done = false
    while (!done) {
      // Shuffle 1 (declared below, once the phase is known to run):
      // every vertex sends its minimum incident rank to all neighbors,
      // so edge (v,u) is recognized at both endpoints as matched iff its
      // rank is minimal at v AND at u. Only u can send v the rank of
      // edge (v,u), so v is matched iff its own minimum is among the ranks
      // it receives. A narrow lookup then takes the decision at every vertex.
      val mins = kit.grouped(adj.flatMap { case (_, (ns, rs)) =>
        rs.minOption.iterator.flatMap(mv => ns.iterator.map(u => (u, mv)))
      })
      // Each row with the neighbor it is matched to this phase, if any.
      val decided = kit.keep(kit.lookup(adj, mins, keepsKeys = true) {
        (v, a: (Array[Long], Array[Long]), received: Option[Array[Long]]) =>
          val (ns, rs) = a
          val partner = Option.when(rs.nonEmpty && received.exists(java.util.Arrays.binarySearch(_, rs.min) >= 0))(ns(rs.indexOf(rs.min)))
          Some((v, (ns, rs, partner)))
      })
      val (nodeCount, edgeCount, matchedPairs) = kit.tally(decided)(
        _._2._1.length,
        { case (v, (_, _, partner)) => partner.filter(v < _).map((v, _)) },
      )
      if (edgeCount == 0) done = true
      else if (edgeCount <= localThreshold) {
        val es = kit.collect(adj).toSeq.flatMap { case (v, (ns, _)) => ns.filter(v < _).map((v, _)) }
        matched ++= Reference.lfMatching(es, Priorities.edgeRank(_, _, seed))
        done = true
      } else {
        require(phases < maxPhases, s"no local finish within $maxPhases phases")
        phases += 1
        metrics.shuffle((2 * edgeCount + nodeCount) * 8)
        matched ++= matchedPairs

        // Shuffle 2: drop matched vertices and prune their ids from the
        // surviving adjacency lists — a narrow lookup of the deletions.
        metrics.shuffle((2 * edgeCount + nodeCount) * 8)
        val deletions = kit.grouped(decided.flatMap { case (v, (ns, _, partner)) =>
          if (partner.isDefined) ns.iterator.map(u => (u, v)) else Iterator.empty
        })
        adj = kit.checkpoint(kit.lookup(decided, deletions, keepsKeys = true) {
          (v, r: (Array[Long], Array[Long], Option[Long]), del: Option[Array[Long]]) =>
            val (ns, rs, partner) = r
            Option.when(partner.isEmpty) {
              val gone = del.getOrElse(Array.emptyLongArray)
              val keep = ns.indices.filter(i => java.util.Arrays.binarySearch(gone, ns(i)) < 0).toArray
              (v, (keep.map(ns), keep.map(rs)))
            }
        })
      }
    }
    Result(matched.toSet, phases, metrics.snapshot)
  }
}

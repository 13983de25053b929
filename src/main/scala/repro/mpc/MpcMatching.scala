package repro.mpc

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
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
  * collects the matched pairs. Edge ranks are distinct, so a vertex is
  * matched iff its minimum edge is also the other endpoint's minimum.
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
  ): Result = {
    val metrics = Metrics.fresh("mpc-mm")
    val kit = new CoPartitioned(spark)
    try {
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
        // rank is minimal at v AND at u. A narrow lookup then takes the
        // decision at every vertex.
        val mins = kit.combined[Long, (Long, Long), mutable.LongMap[Long]](adj.flatMap { case (v, (ns, rs)) =>
          rs.minOption.iterator.flatMap(mv => ns.iterator.map(u => (u, (v, mv))))
        })(mutable.LongMap(_), _ += _, _ ++= _)
        // Each row with the neighbor it is matched to this phase, if any.
        val decided = kit.keep(kit.lookup(adj, mins, keepsKeys = true) {
          (v, a: (Array[Long], Array[Long]), nbrMins: Option[mutable.LongMap[Long]]) =>
            val (ns, rs) = a
            val partner = Option.when(rs.nonEmpty)(ns(rs.indexOf(rs.min))).filter(u => nbrMins.flatMap(_.get(u)).contains(rs.min))
            Some((v, (ns, rs, partner)))
        })
        val (nodeCount, edgeCount, matchedPairs) = kit.tally(decided)(
          _._2._1.length,
          { case (v, (_, _, partner)) => partner.filter(v < _).map((v, _)) },
        )
        if (edgeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          val es = adj.collect().toSeq.flatMap { case (v, (ns, _)) => ns.filter(v < _).map((v, _)) }
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
            (v, r: (Array[Long], Array[Long], Option[Long]), del: Option[mutable.HashSet[Long]]) =>
              val (ns, rs, partner) = r
              val gone = del.getOrElse(mutable.HashSet.empty[Long])
              val keep = ns.indices.filterNot(i => gone(ns(i)))
              Option.when(partner.isEmpty)((v, (keep.map(ns).toArray, keep.map(rs).toArray)))
          })
        }
      }
      Result(matched.toSet, phases, metrics.snapshot)
    } finally {
      kit.release()
      metrics.close()
    }
  }
}

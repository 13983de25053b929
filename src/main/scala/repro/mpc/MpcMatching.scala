package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.graphs.GraphOps
import repro.ref.Reference

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
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-mm")
    try {
      // Adjacency lists carrying edge ranks (input formatting, uncounted).
      var adj = GraphOps
        .symmetrize(edges.select("src", "dst"))
        .as[(Long, Long)]
        .groupByKey(_._1)
        .mapGroups { (v, it) =>
          val ns = it.map(_._2).toArray.sorted
          (v, ns, ns.map(u => Priorities.edgeRank(v, u, seed)))
        }
        .persist()

      val matched = scala.collection.mutable.Set.empty[(Long, Long)]
      var phases = 0
      var done = false
      while (!done) {
        val (nodeCount, edgeCount) = GraphOps.adjacencySize(adj)(_._2.length)
        if (edgeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          val local = adj.collect()
          val es = local
            .flatMap { case (v, ns, _) => ns.map(u => (v, u)) }
            .filter(p => p._1 < p._2)
            .toSeq
          matched ++= Reference.lfMatching(es, Priorities.edgeRank(_, _, seed))
          done = true
        } else {
          require(phases < maxPhases, s"no local finish within $maxPhases phases")
          phases += 1
          // Shuffle 1: every vertex sends its minimum incident rank to
          // all neighbors, so edge (v,u) is recognized at both endpoints
          // as matched iff its rank is minimal at v AND at u.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val msgs = adj.flatMap { case (v, ns, rs) =>
            if (rs.isEmpty) Iterator.empty
            else {
              val mv = rs.min
              ns.iterator.map(u => (u, v, mv))
            }
          }
          val withNbrMin = adj
            .groupByKey(_._1)
            .cogroup(msgs.groupByKey(_._1)) { (v, aIt, mIt) =>
              aIt.map { case (_, ns, rs) =>
                val mins = mIt.map(t => (t._2, t._3)).toMap
                (v, ns, rs, ns.map(mins.getOrElse(_, Long.MaxValue)))
              }
            }
            .persist()

          // Matched decision — a map over the joined records.
          val matchedPairs = withNbrMin
            .flatMap { case (v, ns, rs, nbrMin) =>
              if (rs.isEmpty) Iterator.empty
              else {
                val myMin = rs.min
                val i = rs.indexOf(myMin)
                val u = ns(i)
                if (nbrMin(i) == myMin && v < u) Iterator.single((v, u))
                else Iterator.empty
              }
            }
            .collect()
          matched ++= matchedPairs
          val matchedVs = matchedPairs.flatMap { case (a, b) => Seq(a, b) }.toSet

          // Shuffle 2: drop matched vertices and prune their ids from the
          // surviving adjacency lists.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val deletions = adj
            .filter(r => matchedVs(r._1))
            .flatMap { case (v, ns, _) => ns.iterator.map(u => (u, v)) }
          val next = adj
            .filter(r => !matchedVs(r._1))
            .groupByKey(_._1)
            .cogroup(deletions.groupByKey(_._1)) { (v, aIt, dIt) =>
              aIt.map { case (_, ns, rs) =>
                val del = dIt.map(_._2).toSet
                val keep = ns.indices.filterNot(i => del(ns(i)))
                (v, keep.map(ns).toArray, keep.map(rs).toArray)
              }
            }
            .localCheckpoint() // truncate per-phase lineage
          adj.unpersist()
          withNbrMin.unpersist()
          adj = next
        }
      }
      Result(matched.toSet, phases, metrics.snapshot)
    } finally metrics.close()
  }
}

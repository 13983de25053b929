package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.graphs.{CoPartitioned, GraphOps}

/** Algorithm 4 — the O(log log Δ)-round, O~(m)-space AMPC maximal
  * matching (Theorem 2 part 1).
  *
  * Phase i matches greedily inside the rank-prefix subgraph
  * H_i = { e ∈ G_i : π(e) ≤ Δ^{-0.5^i} } (or all of G_i once the residual
  * degree drops to 10·ln n), then removes matched vertices. Because the
  * prefix thresholds grow monotonically, the union of phase matchings is
  * exactly the global lexicographically-first matching for π — which the
  * tests verify against the sequential oracle and against
  * [[AmpcMatching]]. That greedy orders edges by rank as a signed `Long`,
  * so π maps ranks to [0, 1) in signed order: a prefix of π is then a
  * prefix of the greedy order.
  *
  * The whole run is one kit scope. G_i is a checkpointed adjacency RDD;
  * each phase sizes it in one action, runs one [[AmpcMatching]] round on
  * its prefix, and drops the matched vertices by a narrow map.
  */
object MatchingPhases {

  final case class Result(
      matching: Set[(Long, Long)],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      maxPhases: Int = 32,
  ): Result = CoPartitioned.run(spark) { kit =>
    var g = kit.checkpoint(kit.adjacency(edges))
    var (vertices, twoM, degree) = sizes(kit, g)
    val delta0 = degree
    val degreeFloor = 10.0 * math.log(math.max(2L, vertices).toDouble)

    var matched = Set.empty[(Long, Long)]
    var phase = 0
    while (twoM > 0) {
      require(phase < maxPhases, s"no maximal matching within $maxPhases phases")
      phase += 1
      val threshold =
        if (degree > degreeFloor && delta0 > 1)
          math.pow(delta0.toDouble, -math.pow(0.5, phase.toDouble))
        else 1.0
      val h =
        if (threshold >= 1.0) g
        else g.mapPartitions(_.flatMap { case (v, ns) => row(v, ns.filter(u => rankUnit(u, v, seed) <= threshold)) }, preservesPartitioning = true)

      val (mi, _) = AmpcMatching.matched(kit, h, seed, caching = true, queryBudget = Long.MaxValue)
      matched ++= mi

      if (threshold >= 1.0) twoM = 0 // H_i = G_i: the matching is maximal
      else {
        // Remove matched vertices and their incident edges: Algorithm 4's
        // one shuffle, here a narrow map over the matched set.
        kit.metrics.shuffle(twoM / 2 * GraphOps.EdgeBytes)
        val gone = mi.flatMap { case (a, b) => Seq(a, b) }
        g = kit.checkpoint(g.mapPartitions(
          _.flatMap { case (v, ns) => if (gone(v)) None else row(v, ns.filterNot(gone)) }, preservesPartitioning = true))
        sizes(kit, g) match { case (_, m2, d) => twoM = m2; degree = d }
      }
    }
    Result(matched, phase, kit.metrics.value)
  }

  /** π(uv) in [0, 1), in the greedy's signed order of edge ranks. */
  private def rankUnit(u: Long, v: Long, seed: Long): Double =
    Priorities.toUnit(Priorities.edgeRank(u, v, seed) ^ Long.MinValue)

  /** `v`'s adjacency row, unless no neighbor is left. */
  private def row(v: Long, ns: Array[Long]): Option[(Long, Array[Long])] = Option.when(ns.nonEmpty)((v, ns))

  /** `g`'s vertices, summed degrees (2m) and maximum degree, in one Spark action. */
  private def sizes(kit: CoPartitioned, g: RDD[(Long, Array[Long])]): (Long, Long, Int) = {
    val parts = kit.perPartition(g)(_.foldLeft((0L, 0L, 0)) { case ((n, s, d), (_, ns)) => (n + 1, s + ns.length, math.max(d, ns.length)) })
    (parts.map(_._1).sum, parts.map(_._2).sum, parts.map(_._3).maxOption.getOrElse(0))
  }
}

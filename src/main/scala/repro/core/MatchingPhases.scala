package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ampc.RunMetrics
import repro.graphs.GraphOps

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
      caching: Boolean = true,
      maxPhases: Int = 32,
  ): Result = {
    val rankUnit = udf((u: Long, v: Long) => Priorities.toUnit(Priorities.edgeRank(u, v, seed) ^ Long.MinValue))
    var g = edges.select("src", "dst").persist()
    val n = math.max(2L, GraphOps.vertices(g).count())
    val delta0 = maxDegree(g)
    val degreeFloor = 10.0 * math.log(n.toDouble)

    var matched = Set.empty[(Long, Long)]
    var metrics = RunMetrics()
    var phase = 0
    var done = g.isEmpty
    while (!done) {
      require(phase < maxPhases, s"no maximal matching within $maxPhases phases")
      phase += 1
      val deltaI = maxDegree(g)
      val threshold =
        if (deltaI > degreeFloor && delta0 > 1)
          math.pow(delta0.toDouble, -math.pow(0.5, phase.toDouble))
        else 1.0
      val h =
        if (threshold >= 1.0) g
        else g.where(rankUnit(col("src"), col("dst")) <= threshold)

      val mi = AmpcMatching.run(spark, h, seed, caching)
      metrics = metrics + mi.metrics
      matched = matched ++ mi.matching

      if (threshold >= 1.0) done = true
      else {
        // Remove matched vertices and their incident edges (one shuffle).
        import spark.implicits._
        val mv = mi.matching.toSeq.flatMap { case (a, b) => Seq(a, b) }.distinct.toDF("id")
        metrics = metrics + RunMetrics(shuffles = 1, shuffleBytes = g.count() * GraphOps.EdgeBytes)
        val next = g
          .join(mv.withColumnRenamed("id", "src"), Seq("src"), "left_anti")
          .join(mv.withColumnRenamed("id", "dst"), Seq("dst"), "left_anti")
          .select("src", "dst")
          .localCheckpoint() // truncate per-phase lineage
        g.unpersist()
        g = next
        done = g.isEmpty
      }
    }
    Result(matched, phase, metrics)
  }

  private def maxDegree(g: DataFrame): Long =
    if (g.isEmpty) 0L
    else GraphOps.degrees(g).agg(max("degree")).collect()(0).getLong(0)
}

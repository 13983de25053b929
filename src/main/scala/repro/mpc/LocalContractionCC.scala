package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.graphs.GraphOps
import repro.ref.Reference

/** MPC connectivity by local contractions — the CC-LocalContraction
  * baseline of §5.6 (Łącki–Mirrokni–Włodarczyk), which prior work found
  * to be the fastest MPC connectivity implementation.
  *
  * Each round every vertex hangs onto its minimum neighbor if that
  * neighbor is smaller than itself, and the resulting stars contract.
  * On a cycle of random ids this removes all non-local-minima in one
  * application — about a 3× shrink per round, matching the paper's
  * measured 2.59–3× — at three shuffles per round (min-neighbor
  * aggregation + two relabeling joins; the original-vertex label table is
  * maintained inside the relabeling rounds). Below `localThreshold`
  * edges the residual is finished on one machine.
  */
object LocalContractionCC {

  final case class Result(
      /** (id, component) for every non-isolated input vertex. */
      labels: DataFrame,
      numComponents: Long,
      rounds: Int,
      /** Current-graph edge count after every round (shrink trajectory). */
      edgeTrajectory: Seq[Long],
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long = 0,
      localThreshold: Long = 2048,
      maxRounds: Int = 200,
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-cc")
    try {
      var cur = edges.select("src", "dst").as[(Long, Long)].persist()
      // orig vertex -> current supervertex
      var labels = GraphOps
        .vertices(edges)
        .as[Long]
        .map(v => (v, v))
        .persist()

      var rounds = 0
      var done = false
      val traj = scala.collection.mutable.ArrayBuffer.empty[Long]
      var finalLabels: DataFrame = null
      var num = 0L
      while (!done) {
        val edgeCount = cur.count()
        traj += edgeCount
        if (edgeCount <= localThreshold) {
          // In-memory finish: union-find over the residual supergraph.
          val rest = cur.collect()
          val supervertices = labels.map(_._2).distinct().collect()
          val roots = (rest.flatMap(e => Seq(e._1, e._2)).toSeq ++ supervertices.toSeq).distinct
          val compOf = Reference.connectedComponents(roots, rest.toSeq) // small by construction
          finalLabels = labels
            .map { case (orig, curV) => (orig, compOf.getOrElse(curV, curV)) }
            .toDF("id", "component")
            .persist()
          // The components the labels take, counted on the driver.
          num = supervertices.iterator.map(v => compOf.getOrElse(v, v)).toSet.size.toLong
          done = true
        } else {
          require(rounds < maxRounds, s"no local finish within $maxRounds rounds")
          rounds += 1
          // Shuffle 1: hang every vertex onto its minimum-*rank* neighbor
          // (fresh random ranks each round, as the hashed priorities of
          // the real implementation — raw ids would stall on
          // sequentially-numbered cycles).
          val roundSeed = repro.core.Priorities.splitmix64(seed ^ (7000L + rounds))
          metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)
          val parents = cur
            .flatMap { case (u, v) => Iterator((u, v), (v, u)) }
            .groupByKey(_._1)
            .mapGroups { (v, it) =>
              import repro.core.Priorities.{precedes, vertexRank}
              var best = v
              var bestR = vertexRank(v, roundSeed)
              it.foreach { case (_, u) =>
                val ru = vertexRank(u, roundSeed)
                if (precedes(ru, u, bestR, best)) { best = u; bestR = ru }
              }
              (v, best)
            }
            .persist()

          // Shuffle 2: relabel src (and fold the label-table update in).
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val afterU = cur
            .groupByKey(_._1)
            .cogroup(parents.groupByKey(_._1)) { (u, eIt, pIt) =>
              val p = pIt.map(_._2).toSeq.headOption.getOrElse(u)
              eIt.map { case (_, v) => (v, p) }
            }
          val newLabels = labels
            .groupByKey(_._2)
            .cogroup(parents.groupByKey(_._1)) { (curV, lIt, pIt) =>
              val p = pIt.map(_._2).toSeq.headOption.getOrElse(curV)
              lIt.map { case (orig, _) => (orig, p) }
            }
            .localCheckpoint() // truncate per-round lineage

          // Shuffle 3: relabel dst, drop loops, dedup.
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val next = afterU
            .groupByKey(_._1)
            .cogroup(parents.groupByKey(_._1)) { (v, eIt, pIt) =>
              val p = pIt.map(_._2).toSeq.headOption.getOrElse(v)
              eIt.flatMap { case (_, u2) =>
                if (u2 == p) Iterator.empty
                else Iterator.single((math.min(u2, p), math.max(u2, p)))
              }
            }
            .distinct()
            .localCheckpoint() // truncate per-round lineage

          cur.unpersist(); labels.unpersist(); parents.unpersist()
          cur = next
          labels = newLabels
        }
      }
      Result(finalLabels, num, rounds, traj.toSeq, metrics.snapshot)
    } finally metrics.close()
  }
}

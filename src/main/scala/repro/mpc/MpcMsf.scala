package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.graphs.GraphOps
import repro.ref.Reference

/** MPC Minimum Spanning Forest — classic Borůvka, as implemented in §5.5.
  *
  * Each phase: every (super)vertex finds its minimum-weight incident edge
  * (shuffle 1) — that edge is in the MSF by the cut property and is
  * emitted; every vertex colors itself red or blue by a per-phase hash,
  * and each blue vertex whose minimum edge points to a red vertex
  * contracts into it; edges are relabeled through the parent mapping
  * (shuffles 2–3) and self-loops drop. Three shuffles per phase, matching
  * Table 3's 33–84 shuffles at 11–28 phases. Below `localThreshold`
  * edges the residual is finished in memory.
  *
  * Edges carry their original endpoints throughout, so the output forest
  * is expressed in input ids. Weight ties break by (w, origSrc, origDst),
  * the same total order as [[Reference.kruskal]] — the forest is unique.
  */
object MpcMsf {

  final case class Result(
      msf: Seq[(Long, Long, Double)],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-msf")
    try {
      // Working edges: (u, v, w, ou, ov) — current endpoints + originals.
      var cur = weightedEdges
        .select("src", "dst", "weight")
        .as[(Long, Long, Double)]
        .map { case (u, v, w) => (u, v, w, u, v) }
        .persist()

      val msf = scala.collection.mutable.Set.empty[(Long, Long, Double)]
      var phases = 0
      var done = false
      while (!done) {
        val edgeCount = cur.count()
        if (edgeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          // In-memory finish: Kruskal over current labels, emitting originals.
          val rest = cur.collect()
          val uf = new Reference.UnionFind()
          rest
            .sortBy { case (_, _, w, ou, ov) => (w, math.min(ou, ov), math.max(ou, ov)) }
            .foreach { case (u, v, w, ou, ov) =>
              if (uf.union(u, v)) msf += ((math.min(ou, ov), math.max(ou, ov), w))
            }
          done = true
        } else {
          require(phases < maxPhases, s"no local finish within $maxPhases phases")
          phases += 1
          // Shuffle 1: minimum incident edge per supervertex.
          metrics.shuffle(2 * edgeCount * GraphOps.WeightedEdgeBytes)
          val sym = cur.flatMap { case (u, v, w, ou, ov) =>
            Iterator((u, v, w, ou, ov), (v, u, w, ou, ov))
          }
          val minEdge = sym
            .groupByKey(_._1)
            .mapGroups { (u, it) =>
              val best = it.reduceLeft { (a, b) =>
                val ka = (a._3, math.min(a._4, a._5), math.max(a._4, a._5))
                val kb = (b._3, math.min(b._4, b._5), math.max(b._4, b._5))
                if (implicitly[Ordering[(Double, Long, Long)]].lteq(ka, kb)) a else b
              }
              (u, best._2, best._3, best._4, best._5)
            }
            .persist()

          // All minimum edges are MSF edges (cut property).
          minEdge.collect().foreach { case (_, _, w, ou, ov) =>
            msf += ((math.min(ou, ov), math.max(ou, ov), w))
          }

          // Blue → red contraction.
          val phaseSeed = Priorities.splitmix64(seed ^ (1000L + phases))
          def red(x: Long): Boolean = (Priorities.splitmix64(x ^ phaseSeed) & 1L) == 0L
          val parents = minEdge.flatMap { case (u, to, _, _, _) =>
            if (!red(u) && red(to)) Iterator.single((u, to)) else Iterator.empty
          }

          // Shuffles 2–3: relabel both endpoints through the parent map.
          metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
          val afterU = cur
            .groupByKey(_._1)
            .cogroup(parents.groupByKey(_._1)) { (u, eIt, pIt) =>
              val p = pIt.map(_._2).toSeq.headOption.getOrElse(u)
              eIt.map { case (_, v, w, ou, ov) => (v, p, w, ou, ov) } // keyed by v next
            }
          metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
          val next = afterU
            .groupByKey(_._1)
            .cogroup(parents.groupByKey(_._1)) { (v, eIt, pIt) =>
              val p = pIt.map(_._2).toSeq.headOption.getOrElse(v)
              eIt.flatMap { case (_, u2, w, ou, ov) =>
                if (u2 == p) Iterator.empty // self-loop after contraction
                else Iterator.single((u2, p, w, ou, ov))
              }
            }
            .localCheckpoint() // truncate per-phase lineage
          cur.unpersist()
          minEdge.unpersist()
          cur = next
        }
      }
      Result(msf.toSeq.distinct, phases, metrics.snapshot)
    } finally metrics.close()
  }
}

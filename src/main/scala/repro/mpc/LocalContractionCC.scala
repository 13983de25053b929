package repro.mpc

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.core.Priorities.{precedes, splitmix64, vertexRank}
import repro.graphs.{CoPartitioned, GraphOps}
import repro.ref.Reference
import scala.collection.mutable

/** MPC connectivity by local contractions — the CC-LocalContraction
  * baseline of §5.6 (Łącki–Mirrokni–Włodarczyk), which prior work found
  * to be the fastest MPC connectivity implementation.
  *
  * Each round every vertex hangs onto its minimum-rank neighbor if that
  * neighbor ranks below itself, and the resulting one-hop stars contract.
  * On a cycle this about halves the edges per round (measured: 3000 →
  * 1507 → 753), less than the paper's measured 2.59–3×, at three declared
  * shuffles per round (min-neighbor aggregation + two relabeling joins;
  * the original-vertex label table is maintained inside the relabeling
  * rounds). Below `localThreshold` edges the residual is finished on one
  * machine.
  *
  * Every table is a pair RDD on [[CoPartitioned]]'s shared partitioner,
  * so joins against the round's parent table are narrow, and a round runs
  * one Spark action: the edge count that feeds the trajectory.
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

  /** The (rank, id)-smaller of two vertices under this round's ranks. */
  private def lower(roundSeed: Long)(a: Long, b: Long): Long =
    if (precedes(vertexRank(b, roundSeed), b, vertexRank(a, roundSeed), a)) b else a

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long = 0,
      localThreshold: Long = 2048,
      maxRounds: Int = 200,
  ): Result = CoPartitioned.run(spark) { kit =>
    import spark.implicits._
    // The kit holds every round's edges and parents until the finish has
    // materialized the label table (which reads all the parents).
    import kit.{checkpoint, reduced, shuffled, withParents}
    val metrics = kit.metrics
    // Current graph keyed by src (the input rows as given until the first round dedups).
    var cur = checkpoint(shuffled(kit.pairs(edges)))
    // current supervertex -> orig, built lazily across the rounds
    var labels: RDD[(Long, Long)] =
      reduced(cur.flatMap { case (u, v) => Iterator((u, u), (v, v)) })((a, _) => a)

    var rounds = 0
    var done = false
    val traj = mutable.ArrayBuffer.empty[Long]
    var finalLabels: DataFrame = null
    var num = 0L
    while (!done) {
      val edgeCount = kit.count(cur)
      traj += edgeCount
      if (edgeCount <= localThreshold) {
        // In-memory finish: union-find over the residual supergraph.
        val rest = kit.collect(cur)
        labels = kit.lasting(labels)
        // Partitioned by supervertex, so a per-partition distinct is global.
        val supervertices = kit.collect(labels.mapPartitions(_.map(_._1).distinct))
        val roots = (rest.flatMap(e => Seq(e._1, e._2)).toSeq ++ supervertices.toSeq).distinct
        val compOf = Reference.connectedComponents(roots, rest.toSeq) // small by construction
        finalLabels = labels
          .map { case (curV, orig) => (orig, compOf.getOrElse(curV, curV)) }
          .toDF("id", "component")
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
        val low = lower(splitmix64(seed ^ (7000L + rounds))) _
        metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)
        val parents = kit.keep(reduced(cur.flatMap { case (u, v) => Iterator((u, v), (v, u)) })(low)
          .mapPartitions(_.map { case (v, best) => (v, low(v, best)) }, preservesPartitioning = true))

        // Shuffle 2: relabel src (a narrow join), then move each edge to its dst.
        metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
        val byDst = shuffled(withParents(cur, parents)((v, pu) => Some((v, pu))))

        // Shuffle 3: relabel dst (narrow again), drop loops, dedup and key
        // by the new src, ready for the next round.
        metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
        val relabeled = withParents(byDst, parents) { (pu, pv) =>
          if (pu == pv) None else Some((math.min(pu, pv), math.max(pu, pv)))
        }
        cur = checkpoint(kit.grouped(relabeled).flatMapValues(_.iterator))
        labels = shuffled(withParents(labels, parents)((orig, p) => Some((p, orig))))
      }
    }
    Result(finalLabels, num, rounds, traj.toSeq, metrics.value)
  }
}

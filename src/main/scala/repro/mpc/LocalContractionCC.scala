package repro.mpc

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities.{precedes, splitmix64, vertexRank}
import repro.graphs.GraphOps
import repro.ref.Reference
import scala.collection.mutable
import scala.reflect.ClassTag

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
  * Every table is a pair RDD keyed by vertex under one shared
  * `HashPartitioner`, so joins against the round's parent table are
  * narrow, and a round runs one Spark action: the edge count that feeds
  * the trajectory.
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

  /** Applies `f(value, parent of key)` to every row, where a vertex
    * without an edge this round is its own parent. This is a narrow hash
    * join: `rows` and `parents` share one partitioner, so partition i of
    * each holds the same keys.
    */
  private def withParents[V, W: ClassTag](rows: RDD[(Long, V)], parents: RDD[(Long, Long)])(
      f: (V, Long) => IterableOnce[W]): RDD[W] = {
    require(rows.partitioner.isDefined && rows.partitioner == parents.partitioner, "rows are not co-partitioned with the parents")
    rows.zipPartitions(parents) { (rs, ps) =>
      val parentOf = mutable.LongMap.from(ps)
      rs.flatMap { case (k, v) => f(v, parentOf.getOrElse(k, k)) }
    }
  }

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long = 0,
      localThreshold: Long = 2048,
      maxRounds: Int = 200,
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-cc")
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    // Spark picks Kryo for a shuffle of primitive keys and values, and Kryo
    // cannot start on Java 17 without `--add-opens`; name Java's instead.
    val ser = new JavaSerializer(spark.sparkContext.getConf)
    def shuffled[V: ClassTag](rdd: RDD[(Long, V)]): RDD[(Long, V)] =
      new ShuffledRDD[Long, V, V](rdd, part).setSerializer(ser)
    def reduced(rdd: RDD[(Long, Long)])(f: (Long, Long) => Long): RDD[(Long, Long)] =
      rdd.combineByKeyWithClassTag(identity[Long], f, f, part, mapSideCombine = true, ser)

    // Every round's edges and parents, released once the finish has
    // materialized the label table (which reads all the parents).
    val held = mutable.ArrayBuffer.empty[RDD[_]]
    try {
      // Current graph keyed by src (the input rows as given until the first round dedups).
      var cur = shuffled(edges.select("src", "dst").as[(Long, Long)].rdd).localCheckpoint()
      held += cur
      // current supervertex -> orig, built lazily across the rounds
      var labels: RDD[(Long, Long)] =
        reduced(cur.flatMap { case (u, v) => Iterator((u, u), (v, v)) })((a, _) => a)

      var rounds = 0
      var done = false
      val traj = mutable.ArrayBuffer.empty[Long]
      var finalLabels: DataFrame = null
      var num = 0L
      while (!done) {
        val edgeCount = cur.count()
        traj += edgeCount
        if (edgeCount <= localThreshold) {
          // In-memory finish: union-find over the residual supergraph.
          val rest = cur.collect()
          labels.localCheckpoint()
          // Partitioned by supervertex, so a per-partition distinct is global.
          val supervertices = labels.keys.mapPartitions(_.distinct).collect()
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
          val parents = reduced(cur.flatMap { case (u, v) => Iterator((u, v), (v, u)) })(low)
            .mapPartitions(_.map { case (v, best) => (v, low(v, best)) }, preservesPartitioning = true)
            .persist(StorageLevel.MEMORY_AND_DISK)
          held += parents

          // Shuffle 2: relabel src (a narrow join), then move each edge to its dst.
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val byDst = shuffled(withParents(cur, parents)((v, pu) => Some((v, pu))))

          // Shuffle 3: relabel dst (narrow again), drop loops, dedup and key
          // by the new src, ready for the next round.
          metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
          val relabeled = withParents(byDst, parents) { (pu, pv) =>
            if (pu == pv) None else Some((math.min(pu, pv), math.max(pu, pv)))
          }
          cur = relabeled
            .combineByKeyWithClassTag[mutable.HashSet[Long]](
              mutable.HashSet(_), _ += _, _ ++= _, part, mapSideCombine = true, ser)
            .flatMapValues(identity)
            .localCheckpoint()
          held += cur
          labels = shuffled(withParents(labels, parents)((orig, p) => Some((p, orig))))
        }
      }
      Result(finalLabels, num, rounds, traj.toSeq, metrics.snapshot)
    } finally {
      held.foreach(_.unpersist(blocking = false))
      metrics.close()
    }
  }
}

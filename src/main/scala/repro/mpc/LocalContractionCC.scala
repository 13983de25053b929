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
  * shuffles per round: the min-neighbor aggregation, and two relabeling
  * shuffles, onto dst and then onto the new src. Below `localThreshold`
  * edges the residual is finished on one machine.
  *
  * Every table is a pair RDD on [[CoPartitioned]]'s shared partitioner,
  * so joins against the round's parent table are narrow. A round's table
  * holds the current edges keyed by src and the label rows (supervertex →
  * original vertex) keyed by supervertex, told apart by a tag. The label
  * rows move to their new supervertex inside the third shuffle, with the
  * edges deduplicated onto their new src; the first round takes them from
  * the parent table, whose keys are every vertex of the input graph. So
  * Spark runs one shuffle stage per declared shuffle, plus the one that
  * keys the input, and a round runs one Spark action: the edge count that
  * feeds the trajectory. The finish reads the residual edges and the
  * supervertices in one more, which also stores the label table it returns.
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

  /** A row of a round's table: an edge (src, (dst, false)) or a label
    * (supervertex, (original vertex, true)).
    */
  private type Tagged = (Long, (Long, Boolean))

  /** The (rank, id)-smaller of two vertices under this round's ranks. */
  private def lower(roundSeed: Long)(a: Long, b: Long): Long =
    if (precedes(vertexRank(b, roundSeed), b, vertexRank(a, roundSeed), a)) b else a

  private def edgesOf(table: RDD[Tagged]): RDD[(Long, Long)] =
    table.mapPartitions(_.collect { case (u, (v, false)) => (u, v) }, preservesPartitioning = true)

  private def labelsOf(table: RDD[Tagged]): RDD[(Long, Long)] =
    table.mapPartitions(_.collect { case (s, (orig, true)) => (s, orig) }, preservesPartitioning = true)

  /** A partition of the next round's table from the rows shuffle 3 moved
    * there: each src's distinct dsts in ascending order, then the labels.
    */
  private def nextTable(rows: Iterator[Tagged]): Iterator[Tagged] = {
    val dsts = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
    val labels = mutable.ArrayBuffer.empty[Tagged]
    rows.foreach { r => if (r._2._2) labels += r else dsts.getOrElseUpdate(r._1, new mutable.ArrayBuilder.ofLong) += r._2._1 }
    dsts.iterator.flatMap { case (u, vs) => CoPartitioned.sortedDistinct(vs.result()).iterator.map(v => (u, (v, false))) } ++
      labels.iterator
  }

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long = 0,
      localThreshold: Long = 2048,
      maxRounds: Int = 200,
  ): Result = CoPartitioned.run(spark) { kit =>
    // The kit holds every round's table and parents until the finish has
    // stored the label table it returns.
    import kit.{checkpoint, reduced, shuffled, withParents}
    val metrics = kit.metrics
    // The input rows as given, keyed by src: the first round dedups them.
    var cur: RDD[Tagged] = checkpoint(shuffled(kit.pairs(edges)).mapValues((_, false)))

    var rounds = 0
    var done = false
    val traj = mutable.ArrayBuffer.empty[Long]
    var finalLabels: DataFrame = null
    var num = 0L
    while (!done) {
      val edgeCount = kit.count(edgesOf(cur))
      traj += edgeCount
      if (edgeCount <= localThreshold) {
        // In-memory finish: union-find over the residual supergraph. One
        // job reads its edges and its supervertices (the label table is
        // partitioned by supervertex, so a per-partition distinct is
        // global) and stores the label table.
        val labels = kit.lasting(labelsOf(cur))
        val parts = kit.perPartition(edgesOf(cur).zipPartitions(labels) { (es, ls) =>
          Iterator.single((es.toArray, ls.map(_._1).distinct.toArray))
        })(_.next())
        val rest = parts.toSeq.flatMap(_._1)
        // Before the first round every vertex is its own supervertex.
        val roots = (rest.flatMap(e => Seq(e._1, e._2)) ++ parts.toSeq.flatMap(_._2)).distinct
        val compOf = Reference.connectedComponents(roots, rest) // small by construction
        val labelRows =
          if (rounds == 0) spark.sparkContext.parallelize(roots.map(v => (v, compOf(v))))
          else labels.map { case (s, orig) => (orig, compOf(s)) }
        finalLabels = kit.frame(labelRows, "id", "component")
        num = compOf.values.toSet.size.toLong
        done = true
      } else {
        require(rounds < maxRounds, s"no local finish within $maxRounds rounds")
        rounds += 1
        val es = edgesOf(cur)
        // Shuffle 1: hang every vertex onto its minimum-*rank* neighbor
        // (fresh random ranks each round, as the hashed priorities of
        // the real implementation — raw ids would stall on
        // sequentially-numbered cycles).
        val low = lower(splitmix64(seed ^ (7000L + rounds))) _
        metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)
        val parents = kit.keep(reduced(es.flatMap { case (u, v) => Iterator((u, v), (v, u)) })(low)
          .mapPartitions(_.map { case (v, best) => (v, low(v, best)) }, preservesPartitioning = true))

        // Shuffle 2: relabel src (a narrow join), then move each edge to its dst.
        metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
        val byDst = shuffled(withParents(es, parents)((v, pu) => Some((v, pu))))

        // Shuffle 3: relabel dst (narrow again), drop loops, and move each
        // edge to its new src, where it is deduplicated. Each label row
        // moves to its new supervertex in the same shuffle; the first
        // round labels every vertex of the graph, a key of the parent table.
        metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
        val relabeled = withParents(byDst, parents) { (pu, pv) =>
          if (pu == pv) None else Some((math.min(pu, pv), (math.max(pu, pv), false)))
        }
        val relabels =
          if (rounds == 1) parents.map { case (v, p) => (p, (v, true)) }
          else withParents(labelsOf(cur), parents)((orig, p) => Some((p, (orig, true))))
        cur = checkpoint(shuffled(relabeled.zipPartitions(relabels)(_ ++ _)).mapPartitions(nextTable, preservesPartitioning = true))
      }
    }
    Result(finalLabels, num, rounds, traj.toSeq, metrics.value)
  }
}

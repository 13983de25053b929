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
  * Each round every vertex contracts into the minimum vertex of its
  * radius-2 neighbourhood, under fresh random ranks: ℓ(u) is the minimum
  * of u's closed neighbourhood, and v's parent the minimum of ℓ over v's.
  * A parent is at most two hops away, so every path maps to a path of
  * supervertices and the components cannot change. On a cycle this
  * removes about two thirds of the edges per round (measured: 3000 → 1022
  * → 341 → 108), the paper's measured 2.59–3×, at three declared shuffles
  * per round: ℓ onto every neighbour, reduced to the parents (2m rows),
  * each edge once onto its dst (m), and each edge both ways onto its new
  * endpoints (2m). Below `localThreshold` edges the residual is finished
  * on one machine.
  *
  * Every table is a pair RDD on [[CoPartitioned]]'s shared partitioner,
  * so joins against the round's parent table are narrow. A round's table
  * holds every edge in both directions keyed by src, so a vertex's arcs
  * are all in its partition and ℓ is a narrow step, and the label rows
  * (supervertex → original vertex) keyed by supervertex, told apart by a
  * tag. The label rows move to their new supervertex inside the third
  * shuffle, with the edges deduplicated onto their new endpoints; the
  * first round takes them from the parent table, whose keys are every
  * vertex of the input graph. So Spark runs one shuffle stage per
  * declared shuffle, plus the one that keys the input both ways, and a
  * round runs one Spark action: the edge count that feeds the trajectory.
  * The finish reads the residual edges and the supervertices in one more,
  * which also stores the label table it returns.
  */
object LocalContractionCC {

  final case class Result(
      /** (id, component) for every non-isolated input vertex. */
      labels: DataFrame,
      numComponents: Long,
      rounds: Int,
      /** Current-graph edge count after every round (shrink trajectory),
        * each undirected edge once; the first entry counts the input's
        * distinct edges, a self-loop among them.
        */
      edgeTrajectory: Seq[Long],
      metrics: RunMetrics,
  )

  /** A row of a round's table: an arc (src, (dst, false)) or a label
    * (supervertex, (original vertex, true)).
    */
  private type Tagged = (Long, (Long, Boolean))

  /** The (rank, id)-smaller of two vertices under the ranks of round
    * `round` (fresh random ranks each round, as the hashed priorities of
    * the real implementation: raw ids would stall on sequentially
    * numbered cycles).
    */
  private[mpc] def lower(seed: Long, round: Int): (Long, Long) => Long = {
    val roundSeed = splitmix64(seed ^ (7000L + round))
    (a, b) => if (precedes(vertexRank(b, roundSeed), b, vertexRank(a, roundSeed), a)) b else a
  }

  /** The edge {u, v} as its two arcs. */
  private def bothWays(u: Long, v: Long): Iterator[Tagged] = Iterator((u, (v, false)), (v, (u, false)))

  /** Every edge of a table once, as its arc with src ≤ dst. */
  private def edgesOf(table: RDD[Tagged]): RDD[(Long, Long)] =
    table.mapPartitions(_.collect { case (u, (v, false)) if u <= v => (u, v) }, preservesPartitioning = true)

  private def labelsOf(table: RDD[Tagged]): RDD[(Long, Long)] =
    table.mapPartitions(_.collect { case (s, (orig, true)) => (s, orig) }, preservesPartitioning = true)

  /** For every arc (u, v) of a partition of a table, (v, ℓ(u)): ℓ(u) is
    * the lowest vertex of u's closed neighbourhood, which u's arcs, all in
    * this partition, give.
    */
  private def minima(low: (Long, Long) => Long)(rows: Iterator[Tagged]): Iterator[(Long, Long)] = {
    val arcs = rows.collect { case (u, (v, false)) => (u, v) }.toArray
    val ell = mutable.LongMap.empty[Long]
    arcs.foreach { case (u, v) => ell(u) = low(ell.getOrElse(u, u), v) }
    arcs.iterator.map { case (u, v) => (v, ell(u)) }
  }

  /** A partition of a round's table from the rows a shuffle moved there:
    * each src's distinct dsts in ascending order, then the labels.
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
    // The input's edges both ways, keyed by src and deduplicated.
    var cur: RDD[Tagged] = checkpoint(
      shuffled(kit.pairs(edges).flatMap { case (u, v) => bothWays(u, v) }).mapPartitions(nextTable, preservesPartitioning = true))

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
        val low = lower(seed, rounds)
        // Shuffle 1: ℓ(u) from u's arcs (narrow), sent along every arc.
        // The minimum reaching v is its parent, the minimum of ℓ over v's
        // closed neighbourhood: ℓ(v) itself is no lower than ℓ of any
        // neighbour u, since v is in u's closed neighbourhood.
        metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)
        val parents = kit.keep(reduced(cur.mapPartitions(minima(low)))(low))

        // Shuffle 2: relabel src (a narrow join), then move each edge to its dst.
        metrics.shuffle(edgeCount * GraphOps.EdgeBytes)
        val byDst = shuffled(withParents(edgesOf(cur), parents)((v, pu) => Some((v, pu))))

        // Shuffle 3: relabel dst (narrow again), drop loops, and move each
        // edge both ways to its new endpoints, where it is deduplicated.
        // Each label row moves to its new supervertex in the same shuffle;
        // the first round labels every vertex of the graph, a key of the
        // parent table.
        metrics.shuffle(2 * edgeCount * GraphOps.EdgeBytes)
        val relabeled = withParents(byDst, parents) { (pu, pv) =>
          if (pu == pv) Iterator.empty else bothWays(pu, pv)
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

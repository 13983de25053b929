package repro.mpc

import java.io.{DataInputStream, DataOutputStream}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.core.Priorities
import repro.graphs.{Codec, CoPartitioned, GraphOps}
import repro.ref.Reference
import scala.collection.mutable

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
  * On [[CoPartitioned]], edges are keyed by their current src, both
  * relabelings are narrow joins, and a phase's one Spark action collects
  * the minimum edges and so sizes the graph.
  */
object MpcMsf {

  final case class Result(
      msf: Seq[(Long, Long, Double)],
      phases: Int,
      metrics: RunMetrics,
  )

  /** An edge in the row of one endpoint: the other end's current label,
    * the weight and the original endpoints. Every phase shuffles each
    * edge twice, and its codec writes the four fields.
    */
  private[repro] final case class Edge(to: Long, w: Double, ou: Long, ov: Long) {
    def original: (Long, Long, Double) = (math.min(ou, ov), math.max(ou, ov), w)
  }

  private[repro] object Edge {
    implicit val codec: Codec[Edge] = new Codec[Edge] {
      def write(o: DataOutputStream, e: Edge): Unit = { o.writeLong(e.to); Codec.double.write(o, e.w); o.writeLong(e.ou); o.writeLong(e.ov) }
      def read(i: DataInputStream): Edge = Edge(i.readLong(), Codec.double.read(i), i.readLong(), i.readLong())
    }
  }

  /** (w, canonical original endpoints): [[Reference.kruskal]]'s order. */
  private val byWeight: Ordering[Edge] = { (a, b) =>
    val c = java.lang.Double.compare(a.w, b.w)
    if (c != 0) c
    else {
      val lo = java.lang.Long.compare(math.min(a.ou, a.ov), math.min(b.ou, b.ov))
      if (lo != 0) lo else java.lang.Long.compare(math.max(a.ou, a.ov), math.max(b.ou, b.ov))
    }
  }

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = CoPartitioned.run(spark) { kit =>
    import kit.{checkpoint, shuffled, withParents}
    val metrics = kit.metrics
    // Working edges, keyed by current src.
    var cur: RDD[(Long, Edge)] = checkpoint(shuffled(
      kit.triples(weightedEdges).map { case (u, v, w) => (u, Edge(v, w, u, v)) }))

    val msf = mutable.Set.empty[(Long, Long, Double)]
    var phases = 0
    var done = false
    while (!done) {
      // Shuffle 1 (declared below, once the phase is known to run): the
      // minimum incident edge and the degree of every supervertex.
      val minEdge = kit.keep(kit.combined[Long, Edge, (Edge, Long)](cur.flatMap { case (u, e) =>
        Iterator((u, e), (e.to, e.copy(to = u)))
      })(e => (e, 1L), (a, e) => (byWeight.min(a._1, e), a._2 + 1), (a, b) => (byWeight.min(a._1, b._1), a._2 + b._2)))
      val (_, degrees, best) = kit.tally(minEdge)(_._2._2, r => Some(r._2._1))
      val edgeCount = degrees / 2
      if (edgeCount == 0) done = true
      else if (edgeCount <= localThreshold) {
        // In-memory finish: Kruskal over current labels, emitting originals.
        val rest = kit.collect(cur)
        val uf = new Reference.UnionFind()
        rest.sortBy(_._2)(byWeight).foreach { case (u, e) => if (uf.union(u, e.to)) msf += e.original }
        done = true
      } else {
        require(phases < maxPhases, s"no local finish within $maxPhases phases")
        phases += 1
        metrics.shuffle(2 * edgeCount * GraphOps.WeightedEdgeBytes)
        // All minimum edges are MSF edges (cut property).
        msf ++= best.map(_.original)

        // Blue → red contraction.
        val phaseSeed = Priorities.splitmix64(seed ^ (1000L + phases))
        def red(x: Long): Boolean = (Priorities.splitmix64(x ^ phaseSeed) & 1L) == 0L
        val parents = minEdge.mapValues(_._1.to).filter { case (u, to) => !red(u) && red(to) }

        // Shuffle 2: relabel src (a narrow join), then move each edge to its dst.
        metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
        val byDst = shuffled(withParents(cur, parents)((e, pu) => Some((e.to, e.copy(to = pu)))))

        // Shuffle 3: relabel dst (narrow again), drop self-loops and key
        // by the new src, ready for the next phase.
        metrics.shuffle(edgeCount * GraphOps.WeightedEdgeBytes)
        cur = checkpoint(shuffled(withParents(byDst, parents)((e, pv) => Option.when(e.to != pv)((e.to, e.copy(to = pv))))))
      }
    }
    Result(msf.toSeq.distinct, phases, metrics.value)
  }
}

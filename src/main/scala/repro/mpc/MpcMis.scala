package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.core.Priorities
import repro.graphs.CoPartitioned
import repro.ref.Reference
import scala.collection.mutable

/** MPC Maximal Independent Set — the rootset-based O(log n)-round
  * algorithm of Figure 2 (Blelloch–Fineman–Shun, analysis by
  * Fischer–Noever).
  *
  * Each phase: vertices whose rank precedes all of their neighbors' join
  * the MIS (a map — priorities are hashes, so no shuffle); the rootset
  * and its neighborhood are removed, which costs the phase's two
  * shuffles — marking removed nodes (a join) and pruning removed
  * neighbors out of the surviving adjacency lists (a join). Once the
  * residual graph has at most `localThreshold` edges it is solved on a
  * single machine (§5.3 found 5·10⁷ a good cutoff at cluster scale).
  *
  * Computes the same lexicographically-first MIS as [[repro.core.AmpcMis]]
  * because both draw ranks from [[Priorities]] with the same seed.
  * On [[CoPartitioned]], a phase's one Spark action sizes the graph and
  * collects its rootset.
  */
object MpcMis {

  final case class Result(
      mis: Set[Long],
      phases: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      localThreshold: Long = 2048,
      maxPhases: Int = 200,
  ): Result = CoPartitioned.run(spark, "mpc-mis") { kit =>
    val metrics = kit.metrics
    def isRoot(v: Long, ns: Array[Long]): Boolean = {
    val vr = Priorities.vertexRank(v, seed)
    ns.forall(u => Priorities.precedes(vr, v, Priorities.vertexRank(u, seed), u))
    }
    // Input representation: adjacency lists, one KV pair per vertex —
    // the PCollection<KV<NodeId, Node>> of Figure 2. Building it from
    // the edge list is input formatting, not a counted phase shuffle
    // (the paper's Table 3 counts 2 shuffles per phase).
    var adj = kit.checkpoint(kit.adjacency(edges))

    val mis = mutable.Set.empty[Long]
    var phases = 0
    var done = false
    while (!done) {
      // (1) LocalMinima — a map over adjacency lists, taken in the
      // action that sizes (and materializes) the adjacency.
      val (nodeCount, edgeCount, rootset) =
        kit.tally(adj)(_._2.length, { case (v, ns) => if (isRoot(v, ns)) Some(v) else None })
      if (nodeCount == 0) done = true
      else if (edgeCount <= localThreshold) {
        // In-memory switch: finish the residual graph on one machine.
        val local = kit.collect(adj).toSeq
        val es = local.flatMap { case (v, ns) => ns.filter(v < _).map((v, _)) }
        mis ++= Reference.lfMis(local.map(_._1), es, Priorities.vertexRank(_, seed))
        done = true
      } else {
        require(phases < maxPhases, s"no local finish within $maxPhases phases")
        phases += 1
        mis ++= rootset

        // (2) ids of rootset nodes and their neighbors — a map; (3) mark
        // nodes to remove — shuffle 1, then a narrow lookup.
        metrics.shuffle((2 * edgeCount + nodeCount) * 8)
        val toRemove = kit.reduced(adj.flatMap { case (v, ns) =>
          if (isRoot(v, ns)) (Iterator.single(v) ++ ns.iterator).map((_, true)) else Iterator.empty
        })(_ || _)
        val marked = kit.lookup(adj, toRemove, keepsKeys = true) { (v, ns, r: Option[Boolean]) =>
          Some((v, (ns, r.isDefined)))
        }

        // (4) Removed nodes emit the edges to delete — a map; (5) prune
        // survivors' adjacency lists — shuffle 2, then a narrow lookup.
        metrics.shuffle((2 * edgeCount + nodeCount) * 8)
        val deletions = kit.grouped(marked.flatMap { case (v, (ns, removed)) =>
          if (removed) ns.iterator.map(u => (u, v)) else Iterator.empty
        })
        adj = kit.checkpoint(kit.lookup(marked, deletions, keepsKeys = true) {
          (v, m: (Array[Long], Boolean), del: Option[Array[Long]]) =>
            if (m._2) None else Some((v, del.fold(m._1)(d => m._1.filter(u => java.util.Arrays.binarySearch(d, u) < 0))))
        })
      }
    }
    Result(mis.toSet, phases, metrics.snapshot)
  }
}

package repro.mpc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Metrics, RunMetrics}
import repro.core.Priorities
import repro.graphs.GraphOps
import repro.ref.Reference

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
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("mpc-mis")
    try {
      // Input representation: adjacency lists, one KV pair per vertex —
      // the PCollection<KV<NodeId, Node>> of Figure 2. Building it from
      // the edge list is input formatting, not a counted phase shuffle
      // (the paper's Table 3 counts 2 shuffles per phase).
      var adj = GraphOps
        .symmetrize(edges.select("src", "dst"))
        .as[(Long, Long)]
        .groupByKey(_._1)
        .mapGroups { (v, it) => (v, it.map(_._2).toArray.sorted) }
        .persist()

      val mis = scala.collection.mutable.Set.empty[Long]
      var phases = 0
      var done = false
      while (!done) {
        val (nodeCount, edgeCount) = GraphOps.adjacencySize(adj)(_._2.length)
        if (nodeCount == 0) done = true
        else if (edgeCount <= localThreshold) {
          // In-memory switch: finish the residual graph on one machine.
          val local = adj.collect()
          val vs = local.map(_._1).toSeq
          val es = local.flatMap { case (v, ns) => ns.map(u => (v, u)) }.filter(p => p._1 < p._2).toSeq
          mis ++= Reference.lfMis(vs, es, Priorities.vertexRank(_, seed))
          done = true
        } else {
          require(phases < maxPhases, s"no local finish within $maxPhases phases")
          phases += 1
          // (1) LocalMinima — a map over adjacency lists.
          val rootset = adj.filter { case (v, ns) =>
            val vr = Priorities.vertexRank(v, seed)
            ns.forall(u => Priorities.precedes(vr, v, Priorities.vertexRank(u, seed), u))
          }
          val newSet = rootset.map(_._1).collect()
          mis ++= newSet

          // (2) ids of rootset nodes and their neighbors — a map.
          val toRemove = rootset.flatMap { case (v, ns) => Iterator.single(v) ++ ns.iterator }

          // (3) Mark nodes to remove — shuffle 1 (join graph with ids).
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          val marked = adj
            .groupByKey(_._1)
            .cogroup(toRemove.groupByKey(identity)) { (v, aIt, rIt) =>
              aIt.map(a => (v, a._2, rIt.nonEmpty))
            }
            .persist()

          // (4) Removed nodes emit the edges to delete — a map.
          val deletions = marked
            .filter(_._3)
            .flatMap { case (v, ns, _) => ns.iterator.map(u => (u, v)) }

          // (5) Prune survivors' adjacency lists — shuffle 2.
          metrics.shuffle((2 * edgeCount + nodeCount) * 8)
          // localCheckpoint truncates the logical plan: without it the
          // per-phase lineage grows and Catalyst analysis dominates.
          val next = marked
            .filter(!_._3)
            .groupByKey(_._1)
            .cogroup(deletions.groupByKey(_._1)) { (v, aIt, dIt) =>
              aIt.map { case (_, ns, _) =>
                val del = dIt.map(_._2).toSet
                (v, ns.filterNot(del))
              }
            }
            .localCheckpoint()
          adj.unpersist()
          marked.unpersist()
          adj = next
        }
      }
      Result(mis.toSet, phases, metrics.snapshot)
    } finally metrics.close()
  }
}

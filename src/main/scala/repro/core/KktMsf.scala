package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.graphs.CoPartitioned
import repro.ref.Reference
import repro.trees.{HeavyLight, RootedTree}

/** F-light edge classification — Algorithm 5 / Appendix B.
  *
  * Given a forest F of the weighted graph G, an edge uw of G is F-light
  * iff u and w lie in different components of F, or w(uw) ≤ the maximum
  * edge weight on the F-path between them (Definition 3.7). Every MSF
  * edge is F-light (Prop. 3.8), so F-heavy edges can be discarded.
  *
  * Per Algorithm 5: each tree of F is rooted, Euler-toured, heavy-light
  * decomposed and equipped with RMQ structures; the per-tree structures
  * are stored in the DHT keyed by component, and every graph edge resolves
  * its path maximum with O(1) queries against them.
  */
object FLightEdges {

  /** The F-light rows of `triples`. F's per-tree structures go into two
    * stores of `kit`, which the returned RDD reads, so it is valid inside
    * the kit's scope only.
    */
  private[core] def classify(
      kit: CoPartitioned,
      triples: RDD[(Long, Long, Double)],
      forest: Seq[(Long, Long, Double)],
  ): RDD[(Long, Long, Double)] = {
    val compDht = kit.dht[Long]("flight-comp")
    val treeDht = kit.dht[HeavyLight]("flight-tree")
    // Line 1–2: components of F, one rooted+decomposed structure each.
    val fVertices = forest.flatMap(e => Seq(e._1, e._2)).distinct
    val comp = Reference.connectedComponents(fVertices, forest.map(e => (e._1, e._2)))
    fVertices.foreach(v => compDht.put(v, comp(v), 16))
    forest.groupBy(e => comp(e._1)).foreach { case (c, treeEdges) =>
      val tree = RootedTree.fromEdges(treeEdges, root = c)
      treeDht.put(c, new HeavyLight(tree), 64 * tree.n + 8)
    }

    triples.filter { case (u, v, w) =>
      (compDht.get(u), compDht.get(v)) match {
        // Every component of F has a tree, written above.
        case (Some(cu), Some(cv)) if cu == cv => w <= treeDht.require(cu).pathMaxEdgeIds(u, v)
        case _                                => true // different components (or not in F at all)
      }
    }
  }
}

/** Algorithm 3 — the Karger–Klein–Tarjan sampling reduction that brings
  * the MSF query complexity from O(m log n) to O(m + n log² n) (§3.1).
  *
  * Sample each edge with probability 1/log n, compute the MSF F of the
  * sample, keep only the F-light edges of G (O(n log n) of them in
  * expectation, Lemma 3.9), and compute the MSF of F ∪ E_light.
  *
  * One kit scope holds both [[AmpcMsf]] contractions and the F-light
  * stores. Below `localThreshold` edges the MSF is Kruskal's on the
  * driver. Both paths return canonical (min, max, weight) edges.
  */
object KktMsf {

  final case class Result(
      msf: Seq[(Long, Long, Double)],
      sampledEdges: Long,
      lightEdges: Long,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      searchBudget: Int = 64,
      localThreshold: Long = 512,
  ): Result = CoPartitioned.run(spark) { kit =>
    val edges = kit.keep(kit.triples(weightedEdges))
    val m = kit.count(edges)
    if (m <= localThreshold) {
      val msf = Reference.kruskal(kit.collect(edges).toSeq).map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }
      Result(msf, m, m, kit.metrics.value)
    } else {
      val p = 1.0 / math.max(2.0, math.log(m.toDouble) / math.log(2.0))
      val sample = edges.filter { case (u, v, _) => Priorities.toUnit(Priorities.edgeRank(u, v, seed + 13)) < p }
      val f = AmpcMsf.contract(kit, sample, seed, searchBudget)
      val light = AmpcMsf.contract(kit, FLightEdges.classify(kit, edges, AmpcMsf.forest(f).rows), seed + 1, searchBudget)
      Result(AmpcMsf.forest(light).rows, f.edges, light.edges, kit.metrics.value)
    }
  }
}

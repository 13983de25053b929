package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Dht, RunMetrics}
import repro.graphs.{CoPartitioned, GraphOps}
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

  /** Returns G's F-light edges as a DataFrame (src, dst, weight). It
    * writes F's per-tree structures into `compDht` and `treeDht`, which the
    * returned DataFrame reads: both must stay open while the edges are in
    * use.
    */
  def classify(
      spark: SparkSession,
      graphEdges: DataFrame,
      forest: Seq[(Long, Long, Double)],
      compDht: Dht[Long],
      treeDht: Dht[HeavyLight],
  ): DataFrame = {
    import spark.implicits._
    // Line 1–2: components of F, one rooted+decomposed structure each.
    val fVertices = forest.flatMap(e => Seq(e._1, e._2)).distinct
    val comp = Reference.connectedComponents(fVertices, forest.map(e => (e._1, e._2)))
    fVertices.foreach(v => compDht.put(v, comp(v), 16))
    forest.groupBy(e => comp(e._1)).foreach { case (c, treeEdges) =>
      val tree = RootedTree.fromEdges(treeEdges, root = c)
      treeDht.put(c, new HeavyLight(tree), 64 * tree.n + 8)
    }

    graphEdges
      .select("src", "dst", "weight")
      .as[(Long, Long, Double)]
      .mapPartitions { it =>
        it.filter { case (u, v, w) =>
          (compDht.get(u), compDht.get(v)) match {
            case (Some(cu), Some(cv)) if cu == cv =>
              treeDht.get(cu) match {
                case Some(hld) => w <= hld.pathMaxEdgeIds(u, v)
                case None      => true
              }
            case _ => true // different components (or not in F at all)
          }
        }
      }
      .toDF("src", "dst", "weight")
  }
}

/** Algorithm 3 — the Karger–Klein–Tarjan sampling reduction that brings
  * the MSF query complexity from O(m log n) to O(m + n log² n) (§3.1).
  *
  * Sample each edge with probability 1/log n, compute the MSF F of the
  * sample, keep only the F-light edges of G (O(n log n) of them in
  * expectation, Lemma 3.9), and compute the MSF of F ∪ E_light.
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
  ): Result = CoPartitioned.run(spark, "kkt-msf") { kit =>
    import org.apache.spark.sql.functions._
    val m = weightedEdges.count()
    if (m <= localThreshold) Result(Reference.kruskal(GraphOps.collectWeighted(weightedEdges)), m, m, kit.metrics.snapshot)
    else {
      val p = 1.0 / math.max(2.0, math.log(m.toDouble) / math.log(2.0))
      val inSample =
        udf((u: Long, v: Long) => Priorities.toUnit(Priorities.edgeRank(u, v, seed + 13)) < p)
      val h = weightedEdges.where(inSample(col("src"), col("dst")))
      val sampledCount = h.count()

      val fRes = AmpcMsf.run(spark, h, seed, searchBudget)
      val light = FLightEdges
        .classify(spark, weightedEdges, fRes.msf, kit.dht[Long]("flight-comp"), kit.dht[HeavyLight]("flight-tree"))
        .persist()
      val lightCount = light.count()

      val finalRes = AmpcMsf.run(spark, light, seed + 1, searchBudget)
      light.unpersist()
      Result(
        finalRes.msf,
        sampledCount,
        lightCount,
        kit.metrics.snapshot + fRes.metrics + finalRes.metrics,
      )
    }
  }
}

package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.graphs.CoPartitioned

/** AMPC connected components (Theorem 1): run the MSF contraction over
  * random edge weights (§5.7 "we tried to apply our MSF algorithm over a
  * graph with random edge weights"), then label every vertex through the
  * contraction mapping with the component of its root in the contracted
  * graph, which is solved in memory on the union-find `AmpcMsf`'s Kruskal
  * pass uses. The MSF itself is never needed: the contraction's job
  * collects the searches' MSF edges, but Kruskal's pass is not run.
  *
  * Labels are canonical: the component id is the minimum root id of the
  * component, so they compare directly against the union-find oracle.
  */
object AmpcConnectivity {

  final case class Result(
      /** (id, component) for every non-isolated vertex. */
      labels: DataFrame,
      numComponents: Long,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      searchBudget: Int = 64,
  ): Result = CoPartitioned.run(spark) { kit =>
    val weighted = kit.pairs(edges).map { case (u, v) => (u, v, Priorities.toUnit(Priorities.edgeRank(u, v, seed + 7))) }
    val c = AmpcMsf.contract(kit, weighted, seed, searchBudget)

    // Components of the contracted graph, solved on one machine: a linked
    // root takes the smallest root of its component, and a root with no
    // contracted edge is a component of its own.
    val k = c.contracted
    val uf = new AmpcMsf.RootUnion(k.linked)
    for (i <- k.cu.indices) uf.union(k.cu(i), k.cv(i))
    val (linked, comp) = (uf.ids, uf.smallest())
    val labels = kit.frame(c.mapping.map { case (v, root) =>
      val i = java.util.Arrays.binarySearch(linked, root)
      (v, if (i >= 0) comp(i) else root)
    }, "id", "component")
    val num = linked.indices.count(i => comp(i) == linked(i)) + (c.roots - linked.length)
    Result(labels, num, kit.metrics.value)
  }
}

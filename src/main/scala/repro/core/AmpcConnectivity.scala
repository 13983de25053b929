package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.graphs.CoPartitioned
import repro.ref.Reference

/** AMPC connected components (Theorem 1): run the MSF contraction over
  * random edge weights (§5.7 "we tried to apply our MSF algorithm over a
  * graph with random edge weights"), then label every vertex through the
  * contraction mapping with the component of its root in the contracted
  * graph, which is solved in memory. The MSF itself is never needed, so
  * neither its search edges nor Kruskal's pass are computed.
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

    // Components of the contracted graph, solved on one machine. A root
    // with no contracted edge is a component of its own.
    val linked = c.contracted.flatMap(e => Seq(e._1, e._2)).distinct
    val rootComp = Reference.connectedComponents(linked, c.contracted.map(e => (e._1, e._2)))
    val labels = kit.frame(c.mapping.map { case (v, root) => (v, rootComp.getOrElse(root, root)) }, "id", "component")
    val num = rootComp.values.toSet.size + (c.roots - linked.size)
    Result(labels, num, kit.metrics.value)
  }
}

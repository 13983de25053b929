package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ampc.RunMetrics
import repro.graphs.GraphOps
import repro.ref.Reference

/** AMPC connected components (Theorem 1): run the MSF machinery over
  * random edge weights (§5.7 "we tried to apply our MSF algorithm over a
  * graph with random edge weights"), then label every vertex through the
  * contraction mapping with the component of its root in the contracted
  * graph, which is solved in memory.
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
  ): Result = {
    val weighted = GraphOps.withRandomWeights(edges.select("src", "dst"), seed + 7)
    val msf = AmpcMsf.run(spark, weighted, seed, searchBudget)

    // Components of the contracted graph, solved on one machine.
    val roots = (msf.contracted.flatMap(c => Seq(c._1, c._2)) ++
      msf.mapping.select("root").distinct().collect().map(_.getLong(0))).distinct
    val rootComp =
      Reference.connectedComponents(roots, msf.contracted.map(c => (c._1, c._2)))

    val compOf = udf((root: Long) => rootComp.getOrElse(root, root))
    val labels = msf.mapping
      .select(col("id"), compOf(col("root")) as "component")
      .persist()
    // The components the labels take, counted on the driver.
    val num = roots.map(r => rootComp.getOrElse(r, r)).distinct.size.toLong
    Result(labels, num, msf.metrics)
  }
}

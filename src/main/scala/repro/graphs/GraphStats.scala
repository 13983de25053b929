package repro.graphs

import org.apache.spark.sql.DataFrame
import repro.ref.Reference

/** Dataset statistics for the Table 2 analog: n, m, diameter, number of
  * connected components and largest component.
  *
  * Component structure is computed distributed (callers pass labels from
  * `repro.core.AmpcConnectivity`, which is itself tested against
  * union-find). The diameter is evaluation support, not a contribution of
  * the paper: like the authors — who report lower bounds `*` from prior
  * work for TW/HL — we report a BFS double-sweep lower bound for every
  * input.
  */
object GraphStats {

  final case class Stats(
      n: Long,
      m: Long,
      /** A double-sweep lower bound. */
      diameter: Long,
      numComponents: Long,
      largestComponent: Long,
  )

  /** Component counts from a (id, component) labeling DataFrame. */
  def componentStats(labels: DataFrame): (Long, Long) = {
    val sizes = labels
      .groupBy("component")
      .count()
      .collect()
      .map(_.getLong(1))
    (sizes.length.toLong, if (sizes.isEmpty) 0L else sizes.max)
  }

  /** Double-sweep BFS diameter lower bound over a collected edge list. */
  def diameterLowerBound(edges: Seq[(Long, Long)], sweeps: Int = 4): Long = {
    val vs = edges.flatMap(e => Seq(e._1, e._2)).distinct
    if (vs.isEmpty) 0L
    else Reference.doubleSweepDiameter(vs, edges, sweeps).toLong
  }

  /** Assemble full stats; `labels` is a (id, component) DataFrame. */
  def stats(edges: DataFrame, labels: DataFrame): Stats = {
    val m = edges.count()
    val n = labels.count()
    val (numCc, largest) = componentStats(labels)
    val diam = diameterLowerBound(GraphOps.collectEdges(edges.select("src", "dst")))
    Stats(n, m, diam, numCc, largest)
  }
}

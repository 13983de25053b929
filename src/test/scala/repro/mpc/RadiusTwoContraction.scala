package repro.mpc

import repro.ref.Reference
import scala.collection.mutable

/** The radius-2 contraction of [[LocalContractionCC]], run on the driver
  * over plain Scala collections: an independent implementation of the
  * same rule, under the same per-round ranks, to check the distributed
  * one's trajectory and labels against.
  *
  * Each round, with ℓ(u) the lowest vertex of u's closed neighbourhood,
  * every vertex v contracts into the lowest ℓ(u) over v's closed
  * neighbourhood; the edges between distinct supervertices remain, each
  * once. Below `threshold` edges union-find finishes the residual graph.
  */
object RadiusTwoContraction {

  final case class Result(trajectory: Seq[Long], labels: Map[Long, Long])

  def run(edges: Seq[(Long, Long)], seed: Long, threshold: Long): Result = {
    var graph = edges.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.distinct
    val labelOf = mutable.LongMap.from(graph.flatMap { case (u, v) => Seq(u -> u, v -> v) })
    val trajectory = mutable.ArrayBuffer(graph.size.toLong)
    var round = 0
    while (graph.size > threshold) {
      round += 1
      val low = LocalContractionCC.lower(seed, round)
      val closed = mutable.LongMap.empty[Set[Long]]
      graph.foreach { case (u, v) =>
        closed(u) = closed.getOrElse(u, Set(u)) + v
        closed(v) = closed.getOrElse(v, Set(v)) + u
      }
      val ell = closed.map { case (u, ns) => u -> ns.reduce(low) }
      val parent = closed.map { case (v, ns) => v -> ns.map(ell).reduce(low) }
      labelOf.mapValuesInPlace((_, s) => parent.getOrElse(s, s))
      graph = graph.map { case (u, v) => (parent(u), parent(v)) }.collect {
        case (pu, pv) if pu != pv => (math.min(pu, pv), math.max(pu, pv))
      }.distinct
      trajectory += graph.size.toLong
    }
    val compOf = Reference.connectedComponents(labelOf.values.toSeq.distinct, graph)
    Result(trajectory.toSeq, labelOf.toMap.map { case (v, s) => v -> compOf(s) })
  }
}

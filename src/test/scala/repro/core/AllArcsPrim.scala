package repro.core

import repro.ampc.{Dht, Metrics}

/** The truncated Prim search as `TruncatedPrim` ran it before its
  * per-vertex cursors: each expansion pushes every arc of the vertex into a
  * priority queue keyed by (w, canonical endpoints). Kept as the oracle the
  * cursor search is compared with.
  */
object AllArcsPrim {

  def search(
      v: Long,
      adjV: WeightAdj,
      seed: Long,
      dht: Dht[WeightAdj],
      metrics: Metrics,
      visitBudget: Int,
  ): Iterator[SearchOut] = {
    val vRank = Priorities.vertexRank(v, seed)
    val out = scala.collection.mutable.ArrayBuffer.empty[SearchOut]
    val visited = scala.collection.mutable.Set(v)
    // Min-heap on (w, canonical endpoints).
    implicit val ord: Ordering[(Double, Long, Long, Long, Long)] =
      Ordering
        .Tuple3[Double, Long, Long](Ordering.Double.TotalOrdering, Ordering.Long, Ordering.Long)
        .on[(Double, Long, Long, Long, Long)] { case (w, cu, cv, _, _) => (w, cu, cv) }
        .reverse
    val pq = scala.collection.mutable.PriorityQueue.empty[(Double, Long, Long, Long, Long)]
    def push(from: Long, a: WeightAdj): Unit = {
      var i = 0
      while (i < a.length) {
        val to = a.nbrs(i)
        if (!visited(to)) {
          pq.enqueue((a.ws(i), math.min(from, to), math.max(from, to), from, to))
        }
        i += 1
      }
    }
    push(v, adjV)
    var depth = 0
    var stop = false
    while (!stop && pq.nonEmpty) {
      val (w, cu, cv, _, to) = pq.dequeue()
      if (!visited(to)) {
        visited += to
        out += SearchOut(0, cu, cv, w)
        val toRank = Priorities.vertexRank(to, seed)
        if (Priorities.precedes(toRank, to, vRank, v)) {
          stop = true // stopping rule (3): reached a higher-priority vertex
        } else {
          out += SearchOut(1, to, v, 0.0)
          if (visited.size > visitBudget) stop = true // rule (1): truncation
          else {
            depth += 1
            push(to, dht.require(to))
          }
        }
      }
    } // rule (2): queue exhausted — component fully explored
    metrics.chain(depth.toLong)
    out.iterator
  }
}

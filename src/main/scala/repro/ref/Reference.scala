package repro.ref

import scala.collection.mutable

/** Exact single-machine reference algorithms used as test oracles and as
  * the in-memory fallbacks that the paper's implementations switch to once
  * the distributed graph shrinks below a threshold (§5.3–§5.5).
  *
  * Edges are undirected; an edge is a pair of distinct vertex ids. The
  * lexicographically-first MIS / maximal matching are *unique* given a
  * priority function, which makes them exact oracles for the distributed
  * implementations that share the same priorities.
  */
object Reference {

  /** Classic union-find with path compression and union by rank. */
  final class UnionFind {
    private val parent = mutable.LongMap.empty[Long]
    private val rank   = mutable.LongMap.empty[Long]

    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent.getOrElse(r, r)
      // path compression
      var c = x
      while (parent.getOrElse(c, c) != r) { val nxt = parent(c); parent(c) = r; c = nxt }
      r
    }

    /** Returns true iff x and y were in different components. */
    def union(x: Long, y: Long): Boolean = {
      val rx = find(x); val ry = find(y)
      if (rx == ry) false
      else {
        val kx = rank.getOrElse(rx, 0L); val ky = rank.getOrElse(ry, 0L)
        if (kx < ky) parent(rx) = ry
        else if (kx > ky) parent(ry) = rx
        else { parent(ry) = rx; rank(rx) = kx + 1 }
        true
      }
    }

    def connected(x: Long, y: Long): Boolean = find(x) == find(y)
  }

  /** Connected-component labels: each vertex mapped to the minimum vertex
    * id of its component. `vertices` must include every endpoint (and may
    * include isolated vertices).
    */
  def connectedComponents(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val uf = new UnionFind()
    edges.foreach { case (u, v) => uf.union(u, v) }
    val minOfRoot = mutable.LongMap.empty[Long]
    vertices.foreach { v =>
      val r = uf.find(v)
      minOfRoot(r) = math.min(minOfRoot.getOrElse(r, Long.MaxValue), v)
    }
    vertices.map(v => v -> minOfRoot(uf.find(v))).toMap
  }

  /** Kruskal's MSF. Ties are broken by (weight, u, v) so the forest is
    * unique; distributed implementations use the same tie-break.
    * Returns the chosen edges.
    */
  def kruskal(edges: Seq[(Long, Long, Double)]): Seq[(Long, Long, Double)] = {
    val uf = new UnionFind()
    edges
      .sortBy { case (u, v, w) => (w, math.min(u, v), math.max(u, v)) }
      .filter { case (u, v, _) => uf.union(u, v) }
  }

  /** Lexicographically-first MIS for the permutation induced by `rank`:
    * v ∈ MIS iff no earlier-ranked neighbor is in the MIS. Unique given
    * `rank` (ties broken by vertex id).
    */
  def lfMis(vertices: Seq[Long], edges: Seq[(Long, Long)], rank: Long => Long): Set[Long] = {
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    edges.foreach { case (u, v) =>
      adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }
    val inMis = mutable.Set.empty[Long]
    val killed = mutable.Set.empty[Long]
    vertices.sortBy(v => (rank(v), v)).foreach { v =>
      if (!killed(v)) { inMis += v; adj.getOrElse(v, Nil).foreach(killed += _) }
    }
    inMis.toSet
  }

  /** Lexicographically-first maximal matching for the permutation induced
    * by `edgeRank` over canonical (min,max) endpoint pairs. Returns the
    * matched edge set (canonicalized). Unique given `edgeRank`.
    */
  def lfMatching(edges: Seq[(Long, Long)], edgeRank: (Long, Long) => Long): Set[(Long, Long)] = {
    val canon = edges.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.distinct
    val matchedV = mutable.Set.empty[Long]
    val m = mutable.Set.empty[(Long, Long)]
    canon.sortBy { case (u, v) => (edgeRank(u, v), u, v) }.foreach { case (u, v) =>
      if (!matchedV(u) && !matchedV(v)) { m += ((u, v)); matchedV += u; matchedV += v }
    }
    m.toSet
  }

  /** Breadth-first distances from `src` over an adjacency map. */
  def bfs(adj: Map[Long, Seq[Long]], src: Long): mutable.LongMap[Int] = {
    val dist = mutable.LongMap.empty[Int]
    val q = mutable.Queue(src)
    dist(src) = 0
    while (q.nonEmpty) {
      val u = q.dequeue()
      adj.getOrElse(u, Nil).foreach { v =>
        if (!dist.contains(v)) { dist(v) = dist(u) + 1; q.enqueue(v) }
      }
    }
    dist
  }

  /** Exact diameter by running BFS from every vertex — O(n·m), tests only. */
  def exactDiameter(vertices: Seq[Long], edges: Seq[(Long, Long)]): Int = {
    val adj = adjacency(vertices, edges)
    vertices.map(v => bfs(adj, v).values.foldLeft(0)(math.max)).foldLeft(0)(math.max)
  }

  /** Double-sweep BFS lower bound on the diameter (what the paper reports
    * with `*` for graphs where the exact diameter is out of reach).
    */
  def doubleSweepDiameter(vertices: Seq[Long], edges: Seq[(Long, Long)], sweeps: Int = 4): Int = {
    if (vertices.isEmpty) return 0
    val adj = adjacency(vertices, edges)
    var best = 0
    var src = vertices.min
    var i = 0
    while (i < sweeps) {
      val d = bfs(adj, src)
      val (far, dist) = d.foldLeft((src, 0)) { case ((bv, bd), (v, dv)) =>
        if (dv > bd) (v, dv) else (bv, bd)
      }
      best = math.max(best, dist)
      src = far
      i += 1
    }
    best
  }

  /** Sequential Prim's algorithm from `src`, returning tree edges in the
    * order they are added (cut-property order). Used to validate the
    * distributed truncated-Prim search.
    */
  def prim(adj: Map[Long, Seq[(Long, Double)]], src: Long): Seq[(Long, Long, Double)] = {
    val visited = mutable.Set(src)
    val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
    // (weight, from, to) with deterministic tie-break
    implicit val ord: Ordering[(Double, Long, Long)] =
      Ordering.Tuple3(Ordering.Double.TotalOrdering.reverse, Ordering.Long.reverse, Ordering.Long.reverse)
    val pq = mutable.PriorityQueue.empty[(Double, Long, Long)]
    adj.getOrElse(src, Nil).foreach { case (to, w) => pq.enqueue((w, src, to)) }
    while (pq.nonEmpty) {
      val (w, from, to) = pq.dequeue()
      if (!visited(to)) {
        visited += to
        out += ((from, to, w))
        adj.getOrElse(to, Nil).foreach { case (t2, w2) => if (!visited(t2)) pq.enqueue((w2, to, t2)) }
      }
    }
    out.toSeq
  }

  def adjacency(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Seq[Long]] = {
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    vertices.foreach(v => adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty))
    edges.foreach { case (u, v) =>
      adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }
    adj.map { case (k, v) => k -> v.toSeq }.toMap
  }

  /** Validity check: is `m` a maximal matching of `edges`? */
  def isMaximalMatching(edges: Seq[(Long, Long)], m: Set[(Long, Long)]): Boolean = {
    val canon = edges.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.toSet
    val mc = m.map { case (u, v) => (math.min(u, v), math.max(u, v)) }
    val matchedV = mc.toSeq.flatMap { case (u, v) => Seq(u, v) }
    val disjoint = matchedV.distinct.size == matchedV.size
    val subset = mc.subsetOf(canon)
    val vs = matchedV.toSet
    val maximal = canon.forall { case (u, v) => vs(u) || vs(v) }
    disjoint && subset && maximal
  }

  /** Validity check: is `s` a maximal independent set? */
  def isMis(vertices: Seq[Long], edges: Seq[(Long, Long)], s: Set[Long]): Boolean = {
    val independent = edges.forall { case (u, v) => !(s(u) && s(v)) }
    val adj = adjacency(vertices, edges)
    val maximal = vertices.forall(v => s(v) || adj(v).exists(s))
    independent && maximal
  }
}

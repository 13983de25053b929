package repro.trees

import scala.collection.mutable

/** Ternary treaps (Appendix A, Lemma A.1–A.2).
  *
  * Given a tree T with Δ(T) ≤ 3 and a random vertex permutation π, the
  * ternary treap is the unique recursive structure whose root is the
  * minimum-rank vertex of each component; removing it splits T into ≤ 3
  * pieces which recurse. The paper bounds the truncated-Prim query cost
  * by subtree sizes in this treap and its height by O(log n) w.h.p.; this
  * module materializes the treap so tests can check both claims.
  */
object Treap {

  final case class Node(id: Long, children: List[Node]) {
    def height: Int = 1 + (if (children.isEmpty) 0 else children.map(_.height).max)
    def size: Int = 1 + children.map(_.size).sum
  }

  /** Build the ternary treap of the tree given by undirected `edges`
    * restricted to the component containing all of `vertices`, with
    * `rank` as π. Tie-break by id. `edges` must form a forest with
    * degree ≤ 3; one treap per component is returned.
    */
  def build(vertices: Seq[Long], edges: Seq[(Long, Long)], rank: Long => Long): List[Node] = {
    val adj = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    vertices.foreach(v => adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty))
    edges.foreach { case (u, v) =>
      adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }
    adj.foreach { case (v, nbrs) =>
      require(nbrs.length <= 3, s"vertex $v has degree ${nbrs.length} > 3 — ternarize first")
    }
    val removed = mutable.Set.empty[Long]

    def component(start: Long): List[Long] = {
      val seen = mutable.Set(start)
      val q = mutable.Queue(start)
      while (q.nonEmpty) {
        val u = q.dequeue()
        adj(u).foreach(w => if (!removed(w) && !seen(w)) { seen += w; q.enqueue(w) })
      }
      seen.toList
    }

    def buildOne(comp: List[Long]): Node = {
      val root = comp.minBy(v => (rank(v), v))
      removed += root
      val kids = adj(root).filterNot(removed).toList.map { nbr =>
        buildOne(component(nbr))
      }
      Node(root, kids)
    }

    val allSeen = mutable.Set.empty[Long]
    val roots = mutable.ListBuffer.empty[Node]
    adj.keys.toSeq.sorted.foreach { v =>
      if (!allSeen(v)) {
        val comp = component(v)
        comp.foreach(allSeen += _)
        roots += buildOne(comp)
      }
    }
    roots.toList
  }

  /** Depth of each vertex in its treap (root depth = 1). */
  def depths(roots: List[Node]): Map[Long, Int] = {
    val out = mutable.Map.empty[Long, Int]
    def go(n: Node, d: Int): Unit = { out(n.id) = d; n.children.foreach(go(_, d + 1)) }
    roots.foreach(go(_, 1))
    out.toMap
  }
}

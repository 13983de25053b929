package repro.trees

/** Euler tour of a rooted tree (Algorithm 5 line 4): the DFS visit
  * sequence in which every edge is traversed twice, together with each
  * vertex's level at every tour position and its first occurrence.
  */
final class EulerTour private (
    val tour: Array[Int],
    val levels: Array[Int],
    val first: Array[Int],
) extends Serializable {
  require(tour.length == levels.length)
}

object EulerTour {
  def of(t: RootedTree): EulerTour = {
    val size = 2 * t.n - 1
    val tour = new Array[Int](size)
    val levels = new Array[Int](size)
    val first = Array.fill(t.n)(-1)
    // Iterative DFS: stack of (vertex, next-child-index).
    val stackV = new Array[Int](t.n + 1)
    val stackC = new Array[Int](t.n + 1)
    var top = 0
    stackV(0) = 0; stackC(0) = 0
    var pos = 0
    def emit(v: Int): Unit = {
      tour(pos) = v; levels(pos) = t.depth(v)
      if (first(v) < 0) first(v) = pos
      pos += 1
    }
    emit(0)
    while (top >= 0) {
      val v = stackV(top)
      val ci = stackC(top)
      if (ci < t.children(v).length) {
        stackC(top) = ci + 1
        val c = t.children(v)(ci)
        top += 1
        stackV(top) = c; stackC(top) = 0
        emit(c)
      } else {
        top -= 1
        if (top >= 0) emit(stackV(top))
      }
    }
    require(pos == size, s"tour length $pos != $size")
    new EulerTour(tour, levels, first)
  }
}

/** Lowest common ancestors via Euler tour + RMQ over levels (Appendix B):
  * LCA(u, w) is the minimum-level vertex between the first occurrences of
  * u and w on the tour.
  */
final class Lca(t: RootedTree) extends Serializable {
  private val euler = EulerTour.of(t)
  private val rmq = Rmq.minInt(euler.levels)

  /** LCA by local indices. */
  def of(u: Int, v: Int): Int = {
    val (i, j) = {
      val fu = euler.first(u); val fv = euler.first(v)
      if (fu <= fv) (fu, fv) else (fv, fu)
    }
    euler.tour(rmq.query(i, j))
  }
}

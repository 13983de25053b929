package repro.trees

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Priorities

/** Tree toolkit tests: every structure is checked against brute force on
  * random trees.
  */
object TreeFixtures {

  /** Random tree on n vertices (ids 0..n-1), random parent attachment. */
  def randomTree(n: Int, seed: Long): Seq[(Long, Long, Double)] = {
    val rng = new scala.util.Random(seed)
    (1 until n).map { i =>
      val p = rng.nextInt(i).toLong
      (p, i.toLong, rng.nextDouble())
    }
  }

  /** Random tree with maximum degree 3 (attach to vertices with spare slots). */
  def ternaryTree(n: Int, seed: Long): Seq[(Long, Long)] = {
    val rng = new scala.util.Random(seed)
    val deg = scala.collection.mutable.Map(0L -> 0)
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    (1 until n).foreach { i =>
      val candidates = deg.filter(_._2 < 3).keys.toSeq.sorted
      val p = candidates(rng.nextInt(candidates.size))
      edges += ((p, i.toLong))
      deg(p) = deg(p) + 1
      deg(i.toLong) = 1
    }
    edges.toSeq
  }

  /** Brute-force max edge weight on the tree path u..v (BFS parents). */
  def bruteParentPathMax(edges: Seq[(Long, Long, Double)], u: Long, v: Long): Double = {
    val adj = edges
      .flatMap { case (a, b, w) => Seq(a -> (b, w), b -> (a, w)) }
      .groupBy(_._1)
      .map { case (k, vs) => k -> vs.map(_._2) }
    // BFS from u recording max weight along the way
    val best = scala.collection.mutable.Map(u -> Double.NegativeInfinity)
    val q = scala.collection.mutable.Queue(u)
    while (q.nonEmpty) {
      val x = q.dequeue()
      adj.getOrElse(x, Nil).foreach { case (y, w) =>
        if (!best.contains(y)) { best(y) = math.max(best(x), w); q.enqueue(y) }
      }
    }
    best(v)
  }
}

class RmqSpec extends AnyFunSuite {
  for (seed <- 1 to 15)
    test(s"sparse table min/max match brute force (seed $seed)") {
      val rng = new scala.util.Random(seed)
      val n = 1 + rng.nextInt(64)
      val a = Array.fill(n)(rng.nextDouble())
      val mn = Rmq.min(a); val mx = Rmq.max(a)
      for (_ <- 1 to 30) {
        val i = rng.nextInt(n); val j = i + rng.nextInt(n - i)
        assert(a(mn.query(i, j)) == a.slice(i, j + 1).min)
        assert(a(mx.query(i, j)) == a.slice(i, j + 1).max)
      }
    }

  test("sparse table over ints matches brute force") {
    val a = Array(3, 1, 4, 1, 5, 9, 2, 6)
    val t = Rmq.minInt(a)
    assert(a(t.query(0, 7)) == 1)
    assert(a(t.query(4, 6)) == 2)
    assert(a(t.query(5, 5)) == 9)
  }

  test("sparse table rejects bad ranges") {
    val t = Rmq.min(Array(1.0, 2.0))
    intercept[IllegalArgumentException](t.query(1, 0))
    intercept[IllegalArgumentException](t.query(0, 2))
  }
}

class RootedTreeSpec extends AnyFunSuite {
  for (seed <- 1 to 10)
    test(s"fromEdges builds consistent parents/depths (seed $seed)") {
      val edges = TreeFixtures.randomTree(30, seed)
      val t = RootedTree.fromEdges(edges, 0L)
      assert(t.n == 30)
      assert(t.parent(0) == -1 && t.depth(0) == 0)
      (1 until t.n).foreach { i =>
        assert(t.depth(i) == t.depth(t.parent(i)) + 1)
        assert(t.children(t.parent(i)).contains(i))
      }
      // subtree sizes sum: root subtree = n
      assert(t.subtreeSize(0) == t.n)
      val totalChildren = t.children.map(_.length).sum
      assert(totalChildren == t.n - 1)
    }

  test("fromEdges rejects disconnected input") {
    intercept[IllegalArgumentException] {
      RootedTree.fromEdges(Seq((0L, 1L, 1.0), (2L, 3L, 1.0)), 0L)
    }
  }
}

class EulerLcaSpec extends AnyFunSuite {
  for (seed <- 1 to 10)
    test(s"euler tour has 2n-1 entries and valid levels (seed $seed)") {
      val t = RootedTree.fromEdges(TreeFixtures.randomTree(25, seed), 0L)
      val e = EulerTour.of(t)
      assert(e.tour.length == 2 * t.n - 1)
      e.tour.indices.foreach(i => assert(e.levels(i) == t.depth(e.tour(i))))
      // adjacent tour entries differ by one level (tree walk)
      (1 until e.tour.length).foreach(i => assert(math.abs(e.levels(i) - e.levels(i - 1)) == 1))
      t.ids.indices.foreach(v => assert(e.tour(e.first(v)) == v))
    }

  for (seed <- 1 to 10)
    test(s"LCA matches brute-force ancestor walk (seed $seed)") {
      val rng = new scala.util.Random(seed + 99)
      val t = RootedTree.fromEdges(TreeFixtures.randomTree(40, seed), 0L)
      val lca = new Lca(t)
      def ancestors(v: Int): List[Int] = {
        var c = v; var out = List(v)
        while (t.parent(c) >= 0) { c = t.parent(c); out = c :: out }
        out
      }
      for (_ <- 1 to 25) {
        val u = rng.nextInt(t.n); val v = rng.nextInt(t.n)
        val au = ancestors(u); val av = ancestors(v)
        val expected = au.zip(av).takeWhile { case (a, b) => a == b }.last._1
        assert(lca.of(u, v) == expected, s"lca($u,$v)")
      }
    }
}

class HeavyLightSpec extends AnyFunSuite {
  for (seed <- 1 to 15)
    test(s"path max edge matches brute force (seed $seed)") {
      val rng = new scala.util.Random(seed + 5)
      val edges = TreeFixtures.randomTree(35, seed)
      val t = RootedTree.fromEdges(edges, 0L)
      val hld = new HeavyLight(t)
      for (_ <- 1 to 30) {
        val u = rng.nextInt(t.n); val v = rng.nextInt(t.n)
        val expected = TreeFixtures.bruteParentPathMax(edges, t.ids(u), t.ids(v))
        assert(hld.pathMaxEdge(u, v) == expected, s"pathMax($u,$v)")
      }
    }

  for (seed <- 1 to 5)
    test(s"light edges to root are O(log n) (seed $seed)") {
      val t = RootedTree.fromEdges(TreeFixtures.randomTree(256, seed), 0L)
      val hld = new HeavyLight(t)
      val bound = 2 * (math.log(t.n.toDouble) / math.log(2.0)).ceil.toInt
      (0 until t.n).foreach(v => assert(hld.lightEdgesToRoot(v) <= bound))
    }

  test("path max on a path graph is the max of the interval") {
    val edges = (0 until 9).map(i => (i.toLong, (i + 1).toLong, (i + 1).toDouble))
    val t = RootedTree.fromEdges(edges, 0L)
    val hld = new HeavyLight(t)
    val i3 = t.index(3L); val i8 = t.index(8L)
    assert(hld.pathMaxEdge(i3, i8) == 8.0)
    assert(hld.pathMaxEdgeIds(0L, 5L) == 5.0)
  }
}

class TreapSpec extends AnyFunSuite {
  for (seed <- 1 to 10)
    test(s"ternary treap root has minimum rank, children partition (seed $seed)") {
      val edges = TreeFixtures.ternaryTree(40, seed)
      val vs = (0L until 40L)
      val rank = (v: Long) => Priorities.vertexRank(v, seed.toLong)
      val roots = Treap.build(vs, edges, rank)
      assert(roots.map(_.size).sum == 40)
      val globalMin = vs.minBy(v => (rank(v), v))
      assert(roots.exists(_.id == globalMin))
    }

  for (seed <- 1 to 10)
    test(s"ternary treap height on a path is O(log n) (Lemma A.1) (seed $seed)") {
      // On paths the ternary treap is the classic treap, whose height is
      // O(log n) w.h.p. — the regime Lemma A.1's expectation argument
      // (E[depth] = sum over j of 1/(dist(i,j)+1)) actually covers.
      val n = 512
      val edges = (0 until n - 1).map(i => (i.toLong, (i + 1).toLong))
      val rank = (v: Long) => Priorities.vertexRank(v, 31L * seed)
      val roots = Treap.build((0L until n.toLong), edges, rank)
      val h = roots.map(_.height).max
      assert(h <= 6 * (math.log(n.toDouble) / math.log(2.0)).toInt, s"height $h")
    }

  for (seed <- 1 to 10)
    test(s"ternary treap height on bushy ternary trees is strongly sublinear (seed $seed)") {
      // Reproduction note (recorded in EXPERIMENTS.md): on *balanced*
      // ternary trees exponentially many vertices sit at each distance, so
      // E[depth(i)] = sum over j of 1/(dist(i,j)+1) is Θ(n/log n), not
      // O(log n) — we observe heights ≈ n/log n ≈ 57 for n = 512 rather
      // than the O(log n) of Lemma A.1. The treap structure itself is
      // still far shallower than the worst case; assert that.
      val n = 512
      val edges = TreeFixtures.ternaryTree(n, seed)
      val rank = (v: Long) => Priorities.vertexRank(v, 31L * seed)
      val roots = Treap.build((0L until n.toLong), edges, rank)
      val h = roots.map(_.height).max
      assert(h < n / 4, s"height $h")
    }

  test("treap of a path with increasing ranks is a path") {
    val n = 8
    val edges = (0 until n - 1).map(i => (i.toLong, (i + 1).toLong))
    val roots = Treap.build((0L until n.toLong), edges, v => v)
    assert(roots.size == 1)
    assert(roots.head.height == n)
  }

  test("treap rejects degree > 3") {
    val star = Seq((0L, 1L), (0L, 2L), (0L, 3L), (0L, 4L))
    intercept[IllegalArgumentException](Treap.build((0L to 4L), star, v => v))
  }
}

package repro.core

import java.io.{DataInputStream, DataOutputStream}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Dht, KvCache, Metrics, RunMetrics}
import repro.graphs.{Codec, CoPartitioned, GraphOps}
import repro.ref.Reference
import scala.collection.mutable

/** Weight-sorted incidence list: neighbors and weights ascending by
  * (weight, canonical endpoints) — Prim's pop order.
  */
final case class WeightAdj(nbrs: Array[Long], ws: Array[Double]) {
  def length: Int = nbrs.length
}

/** One output item of a truncated Prim search: either a discovered MSF
  * edge (kind 0, canonical endpoints + weight) or a visit tuple (kind 1,
  * a = visited vertex, b = visitor).
  */
final case class SearchOut(kind: Int, a: Long, b: Long, w: Double)

/** AMPC Minimum Spanning Forest — the constant-round algorithm of §3 as
  * implemented in §5.5.
  *
  * Pipeline (5 costly shuffles, matching Table 3):
  *  1. SortGraph: group each vertex's incident edges sorted by weight
  *     (shuffle 1), write to the DHT (KV-Write);
  *  2. PrimSearch: run Prim's algorithm from every vertex against the
  *     DHT, stopping when the search (a) exceeds `searchBudget` visited
  *     vertices, (b) exhausts its component, or (c) reaches a vertex
  *     preceding it in the random permutation (Algorithm 1's three
  *     stopping rules). Every edge Prim adds is an MSF edge by the cut
  *     property (weights are made unique by the (w, u, v) tie-break);
  *     each search also emits (visited, visitor) tuples for every visited
  *     lower-priority vertex;
  *  3. combine visits per visited vertex, keeping the highest-priority
  *     visitor as its parent (shuffle 2) — parents strictly decrease in
  *     rank, so they form a forest;
  *  4. PointerJump: walk parent pointers through the DHT to a root
  *     (memoized), materializing the contraction mapping (shuffle 3);
  *  5. Contract: relabel edges through the mapping, drop self-loops and
  *     keep the lightest edge per supervertex pair (shuffles 4–5, the
  *     paper's two contraction shuffles);
  *  6. run the in-memory MSF algorithm on the contracted graph (the role
  *     Prop. 3.1's DenseMSF plays; the paper's implementation does the
  *     same).
  *
  * Every table is a pair RDD on the [[CoPartitioned]] kit, and a run takes
  * three Spark jobs: steps 1, 2–3 (the parents are written in the job that
  * combines them), and 4–5 (the mapping is a map over the DHT, so the engine
  * sees four shuffles for the five declared), which also collects the
  * searches' MSF edges. The contracted rows and the MSF are collected as
  * primitive columns. Steps 1–5 (`contract`) run on the caller's kit and
  * step 6 (`forest`) in memory, so `KktMsf` runs both inside its own scope,
  * and `AmpcConnectivity` runs only the first.
  *
  * The paper found one search round (without ternarization) shrinks the
  * graph enough in practice; `Ternarize` + this routine compose into the
  * theoretical Algorithm 2 (see tests).
  */
object AmpcMsf {

  final case class Result(
      /** Canonical (src, dst, weight) MSF edges with original endpoints. */
      msf: IndexedSeq[(Long, Long, Double)],
      /** Contraction mapping: vertex → tree root. */
      mapping: DataFrame,
      /** Contracted graph edges as (rootU, rootV) with original info. */
      contracted: IndexedSeq[(Long, Long, Long, Long, Double)],
      nContracted: Long,
      metrics: RunMetrics,
  )

  /** A contraction on a kit: the mapping (vertex → root), the contracted
    * graph, the number of input rows and of roots (the vertices no search
    * gave a parent), and the MSF edges the searches found (an edge once per
    * search that found it).
    */
  private[core] final case class Contraction(
      mapping: RDD[(Long, Long)],
      contracted: Contracted,
      edges: Long,
      roots: Long,
      found: Edges,
  )

  /** Weighted edges as columns: edge i is (`a(i)`, `b(i)`, `w(i)`). */
  private[core] final case class Edges(a: Array[Long], b: Array[Long], w: Array[Double]) {
    def size: Int = w.length

    def rows: IndexedSeq[(Long, Long, Double)] = new Columns(size, i => (a(i), b(i), w(i)))
  }

  private[core] object Edges {
    def concat(es: Seq[Edges]): Edges = Edges(Array.concat(es.map(_.a): _*), Array.concat(es.map(_.b): _*), Array.concat(es.map(_.w): _*))
  }

  /** Collects edges into [[Edges]]. */
  private final class EdgeBuilder {
    private val (a, b, w) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofDouble)
    def add(x: Long, y: Long, wt: Double): Unit = { a += x; b += y; w += wt }
    def result(): Edges = Edges(a.result(), b.result(), w.result())
  }

  /** The contracted graph: row i joins the roots `cu(i) < cv(i)` by the
    * lightest input row between them, `edges` row i as (src, dst, weight).
    */
  private[core] final case class Contracted(cu: Array[Long], cv: Array[Long], edges: Edges) {
    def rows: IndexedSeq[(Long, Long, Long, Long, Double)] =
      new Columns(cu.length, i => (cu(i), cv(i), edges.a(i), edges.b(i), edges.w(i)))

    /** The roots some row joins, ascending. */
    lazy val linked: Array[Long] = CoPartitioned.sortedDistinct(Array.concat(cu, cv))
  }

  private[core] object Contracted {
    def concat(cs: Seq[Contracted]): Contracted =
      Contracted(Array.concat(cs.map(_.cu): _*), Array.concat(cs.map(_.cv): _*), Edges.concat(cs.map(_.edges)))
  }

  /** A union-find over roots held as dense ints: root `ids(i)` (ascending)
    * is element i. A union hangs the larger element under the smaller, so
    * the representative of a set is its smallest root.
    */
  private[core] final class RootUnion(val ids: Array[Long]) {
    private val parent = Array.range(0, ids.length)

    private def find(e: Int): Int = {
      var i = e
      while (parent(i) != i) { parent(i) = parent(parent(i)); i = parent(i) }
      i
    }

    /** Joins the sets of two roots in [[ids]]; true iff they were apart. */
    def union(x: Long, y: Long): Boolean = {
      val i = find(java.util.Arrays.binarySearch(ids, x))
      val j = find(java.util.Arrays.binarySearch(ids, y))
      if (i != j) parent(math.max(i, j)) = math.min(i, j)
      i != j
    }

    /** The smallest root of each element's set, by element. */
    def smallest(): Array[Long] = Array.tabulate(ids.length)(i => ids(find(i)))
  }

  /** `length` rows, each built on read by `row` from the arrays it reads:
    * a held result keeps the arrays, not a tuple per row.
    */
  private final class Columns[A](val length: Int, row: Int => A) extends collection.immutable.AbstractSeq[A] with IndexedSeq[A] {
    def apply(i: Int): A = row(i)
  }

  /** One incident edge of a vertex as shuffled: the neighbor, the weight,
    * and whether the input row named this vertex as its src. Its codec
    * writes the three fields.
    */
  private[repro] final case class Arc(to: Long, w: Double, out: Boolean)

  private[repro] object Arc {
    implicit val codec: Codec[Arc] = new Codec[Arc] {
      def write(o: DataOutputStream, a: Arc): Unit = { o.writeLong(a.to); Codec.double.write(o, a.w); o.writeBoolean(a.out) }
      def read(i: DataInputStream): Arc = Arc(i.readLong(), Codec.double.read(i), i.readBoolean())
    }
  }

  /** A vertex's row: its weight-sorted adjacency, and `out(i)` iff the
    * input row of its i-th edge named this vertex as its src.
    */
  private final case class Incident(adj: WeightAdj, out: Array[Boolean])

  /** An input edge row on its way through the contraction, with the root
    * of the endpoint it was last keyed by.
    */
  private[repro] final case class Relabeled(src: Long, dst: Long, w: Double, root: Long)

  private[repro] object Relabeled {
    implicit val codec: Codec[Relabeled] = new Codec[Relabeled] {
      def write(o: DataOutputStream, e: Relabeled): Unit = {
        o.writeLong(e.src); o.writeLong(e.dst); Codec.double.write(o, e.w); o.writeLong(e.root)
      }
      def read(i: DataInputStream): Relabeled = Relabeled(i.readLong(), i.readLong(), Codec.double.read(i), i.readLong())
    }
  }

  /** Edges (w, lo, hi) by weight, then canonical endpoints: Prim's and
    * Kruskal's order.
    */
  private[core] def byWeight(w1: Double, lo1: Long, hi1: Long, w2: Double, lo2: Long, hi2: Long): Int = {
    val c = java.lang.Double.compare(w1, w2)
    if (c != 0) c
    else {
      val lo = java.lang.Long.compare(lo1, lo2)
      if (lo != 0) lo else java.lang.Long.compare(hi1, hi2)
    }
  }

  /** The lighter of two rows by (weight, src, dst). */
  private def lighter(a: Relabeled, b: Relabeled): Relabeled = {
    val c = java.lang.Double.compare(a.w, b.w)
    if (c < 0 || c == 0 && (a.src < b.src || a.src == b.src && a.dst <= b.dst)) a else b
  }

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      searchBudget: Int = 64,
  ): Result = CoPartitioned.run(spark) { kit =>
    val c = contract(kit, kit.triples(weightedEdges), seed, searchBudget)
    Result(forest(c).rows, kit.frame(c.mapping, "id", "root"), c.contracted.rows, c.contracted.linked.length.toLong, kit.metrics.value)
  }

  /** Steps 1–5 on `kit` over (src, dst, weight) rows, in three Spark jobs. */
  private[core] def contract(kit: CoPartitioned, triples: RDD[(Long, Long, Double)], seed: Long, searchBudget: Int): Contraction = {
    val metrics = kit.metrics
    val adjDht = kit.dht[WeightAdj]("msf-adj")
    val parentDht = kit.dht[Long]("msf-parent")
    val rootCache = new KvCache[Long](enabled = true, metrics)
    // Part 1: SortGraph (shuffle 1) + KV-Write. The write counts the
    // vertices and sums their degrees to 2m.
    val rows = kit.keep(kit.shuffled(triples.flatMap { case (u, v, w) =>
      Iterator((u, Arc(v, w, out = true)), (v, Arc(u, w, out = false)))
    }).mapPartitions(sortGraph, preservesPartitioning = true))
    val (nVertices, twoM, _) = AmpcRound.write(kit, rows.mapValues(_.adj), adjDht, 16)(_.length)
    val m = twoM / 2
    metrics.shuffle(2 * m * GraphOps.WeightedEdgeBytes)

    // Part 2: PrimSearch from every vertex.
    val budget = searchBudget
    val searchOut = kit.keep(rows.mapPartitions(_.flatMap { case (v, r) =>
      TruncatedPrim.search(v, r.adj, seed, adjDht, metrics, budget)
    }))

    // Shuffle 2: combine visit tuples per visited vertex on the map side,
    // keeping the highest-priority (lowest-rank) visitor as its parent
    // and counting the visits, then write the parents in the same job.
    // (The MSF edges emitted by the searches ride along in the same round.)
    def higher(x: Long, y: Long): Long =
      if (Priorities.precedes(Priorities.vertexRank(x, seed), x, Priorities.vertexRank(y, seed), y)) x else y
    val parents = kit.combined[Long, Long, (Long, Long)](searchOut.flatMap(o => Option.when(o.kind == 1)((o.a, o.b))))(
      (_, 1L), (c, b) => (higher(c._1, b), c._2 + 1), (c, d) => (higher(c._1, d._1), c._2 + d._2))
    val (children, visits, _) = kit.tally(parents.map { case (c, (p, k)) => parentDht.put(c, p, 16); k })(identity, _ => None)
    metrics.shuffle(visits * GraphOps.EdgeBytes)

    // Shuffle 3: pointer-jump construction — materialize vertex → root.
    // The contraction's job computes and checkpoints it, so the mapping
    // keeps no lineage back to the DHT, which the scope closes.
    metrics.shuffle(nVertices * GraphOps.EdgeBytes)
    val mapping = kit.lasting(rows.mapPartitions(
      _.map { case (v, _) => (v, PointerJump.root(v, parentDht, rootCache, metrics)) }, preservesPartitioning = true))

    // Shuffles 4–5: contract the graph through the mapping. Each input
    // row leaves the row of its src with the src's root (a narrow
    // lookup), moves to its dst, takes the dst's root (narrow again),
    // and the lightest row per supervertex pair is kept.
    metrics.shuffle(m * GraphOps.WeightedEdgeBytes)
    val atDst = kit.shuffled(kit.lookup(rows, mapping) { (v, r: Incident, root: Option[Long]) =>
      r.out.indices.iterator.collect { case i if r.out(i) => (r.adj.nbrs(i), Relabeled(v, r.adj.nbrs(i), r.adj.ws(i), root.get)) }
    })
    metrics.shuffle(m * GraphOps.WeightedEdgeBytes / 4)
    val crossing = kit.lookup(atDst, mapping) { (_, e: Relabeled, root: Option[Long]) =>
      val rv = root.get
      Option.when(e.root != rv)(((math.min(e.root, rv), math.max(e.root, rv)), e))
    }
    // The same job collects, partition by partition, the kept rows and the
    // MSF edges of the kept searches, both as columns.
    val parts = kit.perPartition(kit.reduced(crossing)(lighter).zipPartitions(searchOut) { (kept, outs) =>
      val (cu, cv, edges, found) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong, new EdgeBuilder, new EdgeBuilder)
      kept.foreach { case ((u, v), e) => cu += u; cv += v; edges.add(e.src, e.dst, e.w) }
      outs.foreach(o => if (o.kind == 0) found.add(o.a, o.b, o.w))
      Iterator.single((Contracted(cu.result(), cv.result(), edges.result()), found.result()))
    })(_.next()).toSeq
    Contraction(mapping, Contracted.concat(parts.map(_._1)), m, nVertices - children, Edges.concat(parts.map(_._2)))
  }

  /** SortGraph's rows of one partition: each vertex's arcs in Prim's pop
    * order, (weight, canonical endpoints), with their `out` flags. The arcs
    * land in columns, each tagged with its vertex's slot in first-seen
    * order, and one stable index sort groups them by slot and orders each
    * group. Rows come out in the slot map's order: `PointerJump`'s memo
    * makes the lookup counts depend on the order of the rows.
    */
  private def sortGraph(arcs: Iterator[(Long, Arc)]): Iterator[(Long, Incident)] = {
    val slot = mutable.LongMap.empty[Int]
    val (at, to, w, out) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofDouble, new mutable.ArrayBuilder.ofBoolean)
    arcs.foreach { case (v, a) => at += slot.getOrElseUpdate(v, slot.size); to += a.to; w += a.w; out += a.out }
    val (s, ts, ws, os) = (at.result(), to.result(), w.result(), out.result())
    val vertex = new Array[Long](slot.size)
    slot.foreachEntry((v, i) => vertex(i) = v)
    val start = new Array[Int](slot.size + 1)
    for (k <- s.indices) start(s(k) + 1) += 1
    for (i <- 1 to slot.size) start(i) += start(i - 1)
    val order = CoPartitioned.indexSort(s.length) { (i, j) =>
      if (s(i) != s(j)) Integer.compare(s(i), s(j))
      else {
        val v = vertex(s(i))
        byWeight(ws(i), math.min(v, ts(i)), math.max(v, ts(i)), ws(j), math.min(v, ts(j)), math.max(v, ts(j)))
      }
    }
    slot.iterator.map { case (v, i) =>
      val n = start(i + 1) - start(i)
      val (nbrs, wts, outs) = (new Array[Long](n), new Array[Double](n), new Array[Boolean](n))
      var k = 0
      while (k < n) { val a = order(start(i) + k); nbrs(k) = ts(a); wts(k) = ws(a); outs(k) = os(a); k += 1 }
      (v, Incident(WeightAdj(nbrs, wts), outs))
    }
  }

  /** Step 6: the MSF of a contraction's input, with original endpoints —
    * the searches' edges, then Kruskal's on the contracted graph keyed by
    * roots, each edge once, at its first place.
    */
  private[core] def forest(c: Contraction): Edges = {
    val k = c.contracted
    val (src, dst, w) = (k.edges.a, k.edges.b, k.edges.w)
    def lo(i: Int) = math.min(src(i), dst(i))
    def hi(i: Int) = math.max(src(i), dst(i))
    val uf = new RootUnion(k.linked)
    val seen = mutable.HashSet.empty[(Long, Long, Double)]
    val msf = new EdgeBuilder
    def add(a: Long, b: Long, w: Double): Unit = if (seen.add((a, b, w))) msf.add(a, b, w)
    for (i <- 0 until c.found.size) add(c.found.a(i), c.found.b(i), c.found.w(i))
    for (i <- CoPartitioned.indexSort(w.length)((i, j) => byWeight(w(i), lo(i), hi(i), w(j), lo(j), hi(j))))
      if (uf.union(k.cu(i), k.cv(i))) add(lo(i), hi(i), w(i))
    msf.result()
  }
}

/** The truncated Prim local search of Algorithm 1. */
object TruncatedPrim {

  /** Run Prim's algorithm from `v` over the DHT-resident adjacency.
    * Emits one [[SearchOut]] per discovered MSF edge (kind 0) and one per
    * visited strictly-lower-priority vertex (kind 1, (visited, v)).
    *
    * Every adjacency is in Prim's pop order ([[WeightAdj]]), so the
    * frontier keeps one cursor per expanded vertex, at its lightest arc not
    * yet taken, in a min-heap by that arc: the cursors' arcs pop in the
    * order a heap of every arc would pop them. An arc into a visited vertex
    * is skipped when it reaches the top. Two arcs compare equal only as
    * parallel copies of one edge, which share their target.
    */
  def search(
      v: Long,
      adjV: WeightAdj,
      seed: Long,
      dht: Dht[WeightAdj],
      metrics: Metrics,
      visitBudget: Int,
  ): Iterator[SearchOut] = {
    val vRank = Priorities.vertexRank(v, seed)
    val out = mutable.ArrayBuffer.empty[SearchOut]
    val visited = mutable.LongMap.empty[Unit]
    visited(v) = ()
    val frontier = new Frontier
    frontier.add(v, adjV)
    var depth = 0
    var stop = false
    while (!stop && frontier.nonEmpty) {
      val to = frontier.to
      if (visited.contains(to)) frontier.next()
      else {
        visited(to) = ()
        out += SearchOut(0, math.min(frontier.from, to), math.max(frontier.from, to), frontier.w)
        frontier.next()
        val toRank = Priorities.vertexRank(to, seed)
        if (Priorities.precedes(toRank, to, vRank, v)) {
          stop = true // stopping rule (3): reached a higher-priority vertex
        } else {
          out += SearchOut(1, to, v, 0.0)
          if (visited.size > visitBudget) stop = true // rule (1): truncation
          else {
            depth += 1
            frontier.add(to, dht.require(to))
          }
        }
      }
    } // rule (2): frontier exhausted — component fully explored
    metrics.chain(depth.toLong)
    out.iterator
  }

  /** Prim's frontier: per expanded vertex a slot with its adjacency and a
    * cursor into it, and a binary min-heap of the slots by the arc under
    * their cursor, compared by hand as [[AmpcMsf.byWeight]].
    */
  private final class Frontier {
    private var owner = new Array[Long](8)
    private var adj = new Array[WeightAdj](8)
    private var at = new Array[Int](8)
    private var heap = new Array[Int](8)
    private var slots = 0
    private var size = 0

    def nonEmpty: Boolean = size > 0

    /** The top arc's source, target and weight. */
    def from: Long = owner(heap(0))
    def to: Long = adj(heap(0)).nbrs(at(heap(0)))
    def w: Double = adj(heap(0)).ws(at(heap(0)))

    /** Adds `a`, the adjacency of `u`, at its lightest arc. */
    def add(u: Long, a: WeightAdj): Unit = if (a.length > 0) {
      if (slots == owner.length) {
        val n = 2 * slots
        owner = java.util.Arrays.copyOf(owner, n); adj = java.util.Arrays.copyOf(adj, n)
        at = java.util.Arrays.copyOf(at, n); heap = java.util.Arrays.copyOf(heap, n)
      }
      owner(slots) = u; adj(slots) = a
      heap(size) = slots
      slots += 1; size += 1
      var i = size - 1
      while (i > 0 && less(heap(i), heap((i - 1) / 2))) { swap(i, (i - 1) / 2); i = (i - 1) / 2 }
    }

    /** Moves the top cursor past its arc; a slot whose arcs are all taken leaves the heap. */
    def next(): Unit = {
      val s = heap(0)
      at(s) += 1
      if (at(s) == adj(s).length) { size -= 1; heap(0) = heap(size) }
      var i = 0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        val c = if (l + 1 < size && less(heap(l + 1), heap(l))) l + 1 else l
        if (c < size && less(heap(c), heap(i))) { swap(i, c); i = c } else done = true
      }
    }

    private def less(s: Int, t: Int): Boolean = {
      val ts = adj(s).nbrs(at(s))
      val tt = adj(t).nbrs(at(t))
      AmpcMsf.byWeight(
        adj(s).ws(at(s)), math.min(owner(s), ts), math.max(owner(s), ts),
        adj(t).ws(at(t)), math.min(owner(t), tt), math.max(owner(t), tt)) < 0
    }

    private def swap(i: Int, j: Int): Unit = { val x = heap(i); heap(i) = heap(j); heap(j) = x }
  }
}

/** Pointer jumping over the parent DHT (§5.5 part 2): repeatedly query a
  * vertex's parent until a root is reached; roots are vertices absent
  * from the parent table. Results are memoized path-wide.
  */
object PointerJump {
  def root(
      v: Long,
      parentDht: Dht[Long],
      cache: KvCache[Long],
      metrics: Metrics,
  ): Long = {
    val path = scala.collection.mutable.ArrayBuffer.empty[Long]
    var cur = v
    var res = -1L
    var depth = 0
    while (res < 0) {
      cache.get(cur) match {
        case Some(r) => res = r
        case None =>
          depth += 1
          parentDht.get(cur) match {
            case Some(p) => path += cur; cur = p
            case None    => res = cur // root
          }
      }
    }
    metrics.chain(depth.toLong)
    path.foreach(cache.put(_, res))
    res
  }
}

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
  * four Spark jobs: steps 1, 2–3 (the parents are written in the job that
  * combines them), 4–5 (the mapping is a map over the DHT, so the engine
  * sees four shuffles for the five declared), and the collect of the
  * searches' MSF edges. Steps 1–5 (`contract`) and step 6 (`forest`) run
  * on the caller's kit, so `KktMsf` runs both inside its own scope, and
  * `AmpcConnectivity` runs only the first.
  *
  * The paper found one search round (without ternarization) shrinks the
  * graph enough in practice; `Ternarize` + this routine compose into the
  * theoretical Algorithm 2 (see tests).
  */
object AmpcMsf {

  final case class Result(
      /** Canonical (src, dst, weight) MSF edges with original endpoints. */
      msf: Seq[(Long, Long, Double)],
      /** Contraction mapping: vertex → tree root. */
      mapping: DataFrame,
      /** Contracted graph edges as (rootU, rootV) with original info. */
      contracted: Seq[(Long, Long, Long, Long, Double)],
      nContracted: Long,
      metrics: RunMetrics,
  )

  /** A contraction on a kit: the mapping (vertex → root), the contracted
    * rows as in [[Result]], the number of input rows and of roots (the
    * vertices no search gave a parent), and the kept search output.
    */
  private[core] final case class Contraction(
      mapping: RDD[(Long, Long)],
      contracted: Seq[(Long, Long, Long, Long, Double)],
      edges: Long,
      roots: Long,
      searches: RDD[SearchOut],
  )

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

  /** The arcs of `v` by (weight, canonical endpoints): Prim's pop order. */
  private def byWeightAt(v: Long): Ordering[Arc] = { (a, b) =>
    val c = java.lang.Double.compare(a.w, b.w)
    if (c != 0) c
    else {
      val lo = java.lang.Long.compare(math.min(v, a.to), math.min(v, b.to))
      if (lo != 0) lo else java.lang.Long.compare(math.max(v, a.to), math.max(v, b.to))
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
    val nContracted = c.contracted.flatMap(e => Seq(e._1, e._2)).distinct.size.toLong
    Result(forest(kit, c), kit.frame(c.mapping, "id", "root"), c.contracted, nContracted, kit.metrics.value)
  }

  /** Steps 1–5 on `kit` over (src, dst, weight) rows. */
  private[core] def contract(kit: CoPartitioned, triples: RDD[(Long, Long, Double)], seed: Long, searchBudget: Int): Contraction = {
    val metrics = kit.metrics
    val adjDht = kit.dht[WeightAdj]("msf-adj")
    val parentDht = kit.dht[Long]("msf-parent")
    val rootCache = kit.cache[Long]("msf-root", enabled = true)
    // Part 1: SortGraph (shuffle 1) + KV-Write. The write counts the
    // vertices and sums their degrees to 2m.
    val rows = kit.keep(kit.shuffled(triples.flatMap { case (u, v, w) =>
      Iterator((u, Arc(v, w, out = true)), (v, Arc(u, w, out = false)))
    }).mapPartitions(
      { it =>
        val arcs = mutable.LongMap.empty[mutable.ArrayBuffer[Arc]]
        it.foreach { case (v, a) => arcs.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += a }
        arcs.iterator.map { case (v, as) =>
          val sorted = as.sorted(byWeightAt(v))
          (v, Incident(WeightAdj(sorted.map(_.to).toArray, sorted.map(_.w).toArray), sorted.map(_.out).toArray))
        }
      },
      preservesPartitioning = true,
    ))
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
    val contracted = kit.collect(kit.reduced(crossing)(lighter)).toSeq.map { case ((cu, cv), e) => (cu, cv, e.src, e.dst, e.w) }
    Contraction(mapping, contracted, m, nVertices - children, searchOut)
  }

  /** Step 6: the MSF of a contraction's input, with original endpoints —
    * the searches' edges and Kruskal's on the contracted graph, keyed by
    * roots.
    */
  private[core] def forest(kit: CoPartitioned, c: Contraction): Seq[(Long, Long, Double)] = {
    val uf = new Reference.UnionFind()
    val extra = c.contracted
      .sortBy { case (_, _, s, d, w) => (w, math.min(s, d), math.max(s, d)) }
      .filter { case (cu, cv, _, _, _) => uf.union(cu, cv) }
      .map { case (_, _, s, d, w) => (math.min(s, d), math.max(s, d), w) }
    val primEdges = kit.collect(c.searches.flatMap(e => Option.when(e.kind == 0)((e.a, e.b, e.w)))).toSeq
    (primEdges ++ extra).distinct
  }
}

/** The truncated Prim local search of Algorithm 1. */
object TruncatedPrim {

  /** Run Prim's algorithm from `v` over the DHT-resident adjacency.
    * Emits one [[SearchOut]] per discovered MSF edge (kind 0) and one per
    * visited strictly-lower-priority vertex (kind 1, (visited, v)).
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

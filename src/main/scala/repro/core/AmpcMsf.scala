package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ampc.{Dht, DhtRegistry, KvCache, Metrics, RunMetrics}
import repro.graphs.GraphOps
import repro.ref.Reference

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

  def run(
      spark: SparkSession,
      weightedEdges: DataFrame,
      seed: Long,
      searchBudget: Int = 64,
  ): Result = {
    import spark.implicits._
    val metrics = Metrics.fresh("ampc-msf")
    val adjDht = DhtRegistry.create[WeightAdj]("msf-adj", metrics)
    val parentDht = DhtRegistry.create[Long]("msf-parent", metrics)
    val rootCache = KvCache.create[Long]("msf-root", enabled = true, metrics)
    try {
      val sym = GraphOps
        .symmetrize(weightedEdges.select("src", "dst", "weight"))
        .as[(Long, Long, Double)]

      // Part 1: SortGraph (shuffle 1) + KV-Write. The write counts the
      // vertices and sums their degrees to 2m.
      val adj = sym
        .groupByKey(_._1)
        .mapGroups { (v, it) =>
          val arr = it.map { case (_, u, w) => (u, w) }.toArray
          val sorted = arr.sortBy { case (u, w) => (w, math.min(v, u), math.max(v, u)) }
          (v, WeightAdj(sorted.map(_._1), sorted.map(_._2)))
        }
      val (nVertices, twoM) = AmpcRound.write(adj, adjDht, 16)(_.length)
      val m = twoM / 2
      metrics.shuffle(2 * m * GraphOps.WeightedEdgeBytes)

      // Part 2: PrimSearch from every vertex.
      val budget = searchBudget
      val searchOut = adj
        .mapPartitions { it =>
          it.flatMap { case (v, a) =>
            TruncatedPrim.search(v, a, seed, adjDht, metrics, budget)
          }
        }
        .persist()

      // Shuffle 2: combine visit tuples per visited vertex, selecting the
      // highest-priority (lowest-rank) visitor as its parent. (The MSF
      // edges emitted by the searches ride along in the same round.) Each
      // group also reports its size, so the parent write sums the visits.
      val parents = searchOut
        .filter(_.kind == 1)
        .groupByKey(_.a)
        .mapGroups { (child, it) =>
          var size = 0L
          val best = it
            .map { o => size += 1; o.b }
            .reduceLeft { (x, y) =>
              if (Priorities.precedes(
                    Priorities.vertexRank(x, seed), x,
                    Priorities.vertexRank(y, seed), y)) x
              else y
            }
          (child, best, size)
        }
      val visits = spark.sparkContext.longAccumulator
      parents.foreachPartition { it: Iterator[(Long, Long, Long)] =>
        it.foreach { case (c, p, k) => parentDht.put(c, p, 16); visits.add(k) }
      }
      metrics.shuffle(visits.sum * GraphOps.EdgeBytes)

      // Shuffle 3: pointer-jump construction — materialize vertex → root.
      // The contraction's jobs compute and checkpoint it, so the mapping
      // keeps no lineage back to the DHT, which `run` closes.
      metrics.shuffle(nVertices * GraphOps.EdgeBytes)
      val mapping = adj.rdd
        .mapPartitions(_.map { case (v, _) => (v, PointerJump.root(v, parentDht, rootCache, metrics)) })
        .localCheckpoint()
        .toDF("id", "root")

      // Shuffles 4–5: contract the graph through the mapping.
      metrics.shuffle(m * GraphOps.WeightedEdgeBytes)
      val relabeled = weightedEdges
        .select("src", "dst", "weight")
        .join(mapping.withColumnRenamed("id", "src").withColumnRenamed("root", "rootU"), "src")
        .join(mapping.withColumnRenamed("id", "dst").withColumnRenamed("root", "rootV"), "dst")
        .where(col("rootU") =!= col("rootV"))
        .select(
          least(col("rootU"), col("rootV")) as "cu",
          greatest(col("rootU"), col("rootV")) as "cv",
          col("src"), col("dst"), col("weight"),
        )
      metrics.shuffle(m * GraphOps.WeightedEdgeBytes / 4)
      val contracted = relabeled
        .groupBy("cu", "cv")
        .agg(min(struct(col("weight"), col("src"), col("dst"))) as "e")
        .select(col("cu"), col("cv"), col("e.src") as "src", col("e.dst") as "dst", col("e.weight") as "weight")
        .collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4)))
        .toSeq

      // In-memory MSF on the contracted graph: Kruskal keyed by roots,
      // emitting the original endpoints of each chosen edge.
      val uf = new Reference.UnionFind()
      val extra = contracted
        .sortBy { case (_, _, s, d, w) => (w, math.min(s, d), math.max(s, d)) }
        .filter { case (cu, cv, _, _, _) => uf.union(cu, cv) }
        .map { case (_, _, s, d, w) => (math.min(s, d), math.max(s, d), w) }

      val primEdges = searchOut
        .filter(_.kind == 0)
        .map(e => (e.a, e.b, e.w))
        .collect()
        .toSeq

      val msf = (primEdges ++ extra).distinct
      val nContracted = contracted.flatMap(c => Seq(c._1, c._2)).distinct.size.toLong
      searchOut.unpersist(); adj.unpersist()
      Result(msf, mapping, contracted, nContracted, metrics.snapshot)
    } finally {
      adjDht.close(); parentDht.close(); rootCache.close(); metrics.close()
    }
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

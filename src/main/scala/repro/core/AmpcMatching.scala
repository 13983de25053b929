package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Dht, KvCache, Metrics, RunMetrics}
import repro.graphs.{CoPartitioned, GraphOps}

/** Rank-sorted incidence list of one vertex: parallel arrays of edge
  * ranks and the corresponding neighbor ids, ascending by (rank, nbr).
  */
final case class EdgeAdj(ranks: Array[Long], nbrs: Array[Long]) {
  def length: Int = ranks.length
}

/** AMPC Maximal Matching — the constant-round algorithm of §4.2,
  * implemented as described in §5.4.
  *
  * Computes the lexicographically-first (random-greedy) maximal matching
  * over the edge permutation derived from `seed`: an edge joins the
  * matching iff no lower-ranked incident edge does.
  *
  * Differences from the MIS code, as the paper lists them: (i) the graph
  * in the DHT is not rank-directed — each vertex stores all incident
  * edges sorted by edge rank; (ii) the query process is started from
  * *vertices*, iterating incident edges by increasing rank (this is what
  * brings total space to O(m + n^{1+ε}), Theorem 2 part 2); (iii) the
  * cache stores one value per *vertex*: its matched partner, or the
  * highest rank below which it is known unmatched.
  *
  * One costly shuffle (building the edge-sorted graph), matching Table 3.
  */
object AmpcMatching {

  final case class Result(
      matching: Set[(Long, Long)],
      passes: Int,
      metrics: RunMetrics,
  )

  def run(
      spark: SparkSession,
      edges: DataFrame,
      seed: Long,
      caching: Boolean = true,
      queryBudget: Long = Long.MaxValue,
  ): Result = CoPartitioned.run(spark) { kit =>
    val (matching, passes) = matched(kit, kit.adjacency(edges), seed, caching, queryBudget)
    Result(matching, passes, kit.metrics.value)
  }

  /** One round on `kit` over adjacency rows (a vertex and its neighbors):
    * the lexicographically-first matching of the graph they list, and the
    * number of query passes.
    */
  private[core] def matched(
      kit: CoPartitioned,
      adjacency: RDD[(Long, Array[Long])],
      seed: Long,
      caching: Boolean,
      queryBudget: Long,
  ): (Set[(Long, Long)], Int) = {
    val metrics = kit.metrics
    val dht = kit.dht[EdgeAdj]("mm-adj")
    // Per-vertex caches (the §5.4 caching optimization): matched partner,
    // and "finished up to rank R" watermark.
    val matchedCache = new KvCache[Long](caching, metrics)
    val finishedCache = new KvCache[Long](caching, metrics)
    // Each vertex's incident edges by rank; grouping them was the single shuffle.
    val adj = kit.keep(adjacency.mapPartitions(
      _.map { case (v, ns) =>
        val rank = ns.map(Priorities.edgeRank(v, _, seed))
        val order = CoPartitioned.indexSort(ns.length) { (i, j) =>
          val c = java.lang.Long.compare(rank(i), rank(j))
          if (c != 0) c else java.lang.Long.compare(ns(i), ns(j))
        }
        val ranks = new Array[Long](ns.length)
        val nbrs = new Array[Long](ns.length)
        var k = 0
        while (k < ns.length) { ranks(k) = rank(order(k)); nbrs(k) = ns(order(k)); k += 1 }
        (v, EdgeAdj(ranks, nbrs))
      },
      preservesPartitioning = true,
    ))

    // Every edge is listed at both endpoints: the write sums 2m.
    val (_, twoM, _) = AmpcRound.write(kit, adj, dht, 16)(_.length)
    metrics.shuffle(twoM * GraphOps.EdgeBytes)

    val (answers, passes) = AmpcRound.resolve(kit, adj, queryBudget) { (v, a, b) =>
      MatchingProcess.vertexProcess(v, a, seed, dht, matchedCache, finishedCache, metrics, b)
    }
    (answers.collect { case (v, Some(p)) => (math.min(v, p), math.max(v, p)) }.toSet, passes)
  }
}

/** Explicit-stack evaluator for the edge/vertex query processes of §4.2. */
private[core] object MatchingProcess {

  /** A frame evaluates "is edge (a, b) with rank r in the matching":
    * iterate the lower-ranked incident edges at both endpoints merged in
    * ascending rank order; the edge joins iff all of them do not.
    */
  private final class Frame(
      val a: Long,
      val b: Long,
      val r: Long,
      val adjA: EdgeAdj,
      val adjB: EdgeAdj,
  ) {
    var ia: Int = 0
    var ib: Int = 0
    var awaiting: Boolean = false
    var pendingSide: Int = 0 // 0 → candidate came from a's list, 1 → b's
  }

  private final class Budget(var queries: Long, val limit: Long) {
    def exhausted: Boolean = queries >= limit
  }

  /** Run the vertex query process from `v` (§4.2): walk v's incident
    * edges by increasing rank, resolving each with the edge process,
    * stopping at the first matched edge.
    *
    * @return None if truncated; Some(None) if v ends unmatched;
    *         Some(Some(u)) if v is matched to u.
    */
  def vertexProcess(
      v: Long,
      adjV: EdgeAdj,
      seed: Long,
      dht: Dht[EdgeAdj],
      matchedCache: KvCache[Long],
      finishedCache: KvCache[Long],
      metrics: Metrics,
      budgetLimit: Long,
  ): Option[Option[Long]] = {
    matchedCache.get(v) match {
      case Some(p) => return Some(Some(p))
      case None    =>
    }
    val budget = new Budget(0L, budgetLimit)
    var i = 0
    val start = finishedCache.get(v).getOrElse(Long.MinValue)
    while (i < adjV.length) {
      val r = adjV.ranks(i)
      val u = adjV.nbrs(i)
      if (r <= start && start != Long.MinValue) {
        i += 1 // already known unmatched below the watermark
      } else {
        edgeStatus(v, u, r, adjV, seed, dht, matchedCache, finishedCache, metrics, budget) match {
          case None => return None // truncated
          case Some(true) =>
            matchedCache.put(v, u); matchedCache.put(u, v)
            return Some(Some(u))
          case Some(false) =>
            finishedCache.put(v, r)
            i += 1
        }
      }
    }
    Some(None)
  }

  /** Quick resolution of an edge's status from the per-vertex caches. */
  private def quick(
      x: Long,
      y: Long,
      r: Long,
      matchedCache: KvCache[Long],
      finishedCache: KvCache[Long],
  ): Option[Boolean] = {
    matchedCache.get(x) match {
      case Some(p) => return Some(p == y)
      case None    =>
    }
    matchedCache.get(y) match {
      case Some(p) => return Some(p == x)
      case None    =>
    }
    if (finishedCache.get(x).exists(_ >= r)) return Some(false)
    if (finishedCache.get(y).exists(_ >= r)) return Some(false)
    None
  }

  /** Memoized evaluation of the edge query process for (a, b, r). */
  private def edgeStatus(
      a: Long,
      b: Long,
      r: Long,
      adjA: EdgeAdj,
      seed: Long,
      dht: Dht[EdgeAdj],
      matchedCache: KvCache[Long],
      finishedCache: KvCache[Long],
      metrics: Metrics,
      budget: Budget,
  ): Option[Boolean] = {
    quick(a, b, r, matchedCache, finishedCache) match {
      case Some(res) => return Some(res)
      case None      =>
    }
    if (budget.exhausted) return None
    budget.queries += 1
    val adjB = dht.require(b)

    var lastResult = false
    var aborted = false
    var maxDepth = 1
    val stack = new scala.collection.mutable.ArrayBuffer[Frame](16)
    stack += new Frame(a, b, r, adjA, adjB)

    def finish(f: Frame, res: Boolean): Unit = {
      if (res) { matchedCache.put(f.a, f.b); matchedCache.put(f.b, f.a) }
      lastResult = res
      stack.remove(stack.length - 1)
    }

    while (!aborted && stack.nonEmpty) {
      val f = stack.last
      var yielded = false
      if (f.awaiting) {
        f.awaiting = false
        if (lastResult) { finish(f, false); yielded = true }
        else {
          // Candidate resolved false: advance its pointer and record the
          // per-vertex watermark (all of that endpoint's edges up to this
          // rank are now known unmatched).
          if (f.pendingSide == 0) {
            finishedCache.put(f.a, f.adjA.ranks(f.ia)); f.ia += 1
          } else {
            finishedCache.put(f.b, f.adjB.ranks(f.ib)); f.ib += 1
          }
        }
      }
      while (!yielded) {
        val ra = if (f.ia < f.adjA.length && f.adjA.ranks(f.ia) < f.r) f.adjA.ranks(f.ia) else Long.MaxValue
        val rb = if (f.ib < f.adjB.length && f.adjB.ranks(f.ib) < f.r) f.adjB.ranks(f.ib) else Long.MaxValue
        if (ra == Long.MaxValue && rb == Long.MaxValue) {
          finish(f, true); yielded = true
        } else {
          val side = if (ra <= rb) 0 else 1
          val (x, y, rf) =
            if (side == 0) (f.a, f.adjA.nbrs(f.ia), ra)
            else (f.b, f.adjB.nbrs(f.ib), rb)
          quick(x, y, rf, matchedCache, finishedCache) match {
            case Some(true) => finish(f, false); yielded = true
            case Some(false) =>
              if (side == 0) f.ia += 1 else f.ib += 1
            case None =>
              if (budget.exhausted) { aborted = true; yielded = true }
              else {
                budget.queries += 1
                val adjY = dht.require(y)
                val adjX = if (side == 0) f.adjA else f.adjB
                f.awaiting = true
                f.pendingSide = side
                stack += new Frame(x, y, rf, adjX, adjY)
                if (stack.length > maxDepth) maxDepth = stack.length
                yielded = true
              }
          }
        }
      }
    }
    metrics.chain(maxDepth.toLong)
    if (aborted) None else Some(lastResult)
  }
}

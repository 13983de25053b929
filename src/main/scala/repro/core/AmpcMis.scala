package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.{Dht, KvCache, Metrics, RunMetrics}
import repro.graphs.{CoPartitioned, GraphOps}
import scala.collection.mutable

/** AMPC Maximal Independent Set — Figure 1 of the paper.
  *
  * Computes the lexicographically-first MIS over the random vertex
  * permutation derived from `seed`, via the recursive query process of
  * Yoshida et al. adapted to AMPC by Behnezhad et al. [19]:
  * v ∈ MIS ⇔ no earlier-ranked neighbor of v is in the MIS.
  *
  * Round structure (matching Table 3's single costly round):
  *  1. one shuffle builds the rank-directed graph (each vertex keeps only
  *     neighbors that precede it, sorted by rank);
  *  2. the directed adjacency is written to the DHT;
  *  3. a ParDo runs the query process from every vertex, reading
  *     neighborhoods from the DHT, memoizing results through the caching
  *     optimization (§5.3) when enabled.
  *
  * A per-vertex query budget reproduces the theoretical n^ε truncation:
  * vertices whose process exceeds the budget are retried in a further
  * pass with a larger budget (the O(1/ε)-step schedule of [19]); with the
  * default unlimited budget one pass suffices, as the paper observed.
  */
object AmpcMis {

  final case class Result(
      mis: Set[Long],
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
    val metrics = kit.metrics
    val dht = kit.dht[Array[Long]]("mis-adj")
    val cache = new KvCache[Boolean](caching, metrics)
    // Step (1): DirectEdgesUsingPriority — the algorithm's one shuffle.
    // Each vertex keeps the neighbors that precede it, sorted by rank.
    val directed = kit.keep(kit.adjacency(edges).mapPartitions(
      _.map { case (v, ns) =>
        val vr = Priorities.vertexRank(v, seed)
        val rank = ns.map(Priorities.vertexRank(_, seed))
        val order = CoPartitioned.indexSort(ns.length) { (i, j) =>
          val c = java.lang.Long.compare(rank(i), rank(j))
          if (c != 0) c else java.lang.Long.compare(ns(i), ns(j))
        }
        val preds = new mutable.ArrayBuilder.ofLong
        var k = 0
        while (k < order.length) {
          val i = order(k)
          if (Priorities.precedes(rank(i), ns(i), vr, v)) preds += ns(i)
          k += 1
        }
        (v, preds.result())
      },
      preservesPartitioning = true,
    ))

    // Step (2): write the directed graph to the key-value store. Each
    // undirected edge survives in exactly one direction, so the lengths
    // the write sums give m, the directed rows step (1) shuffled.
    val (_, m, _) = AmpcRound.write(kit, directed, dht, 8)(_.length)
    metrics.shuffle(m * GraphOps.EdgeBytes)

    // Step (3): ParDo the IsInMIS query process over all vertices.
    val (answers, passes) = AmpcRound.resolve(kit, directed, queryBudget) { (v, adj, b) =>
      QueryProcess.inMis(v, adj, seed, dht, cache, metrics, b)
    }
    Result(answers.collect { case (v, true) => v }.toSet, passes, metrics.value)
  }
}

/** The explicit-stack memoized evaluator for the recursive MIS query
  * process (the `IsInMIS` DoFn of Figure 1). Factored out so both the
  * distributed path and unit tests can drive it directly.
  */
private[core] object QueryProcess {

  private final class Frame(val v: Long, val adj: Array[Long]) {
    var idx: Int = 0
    var awaiting: Boolean = false
  }

  /** Evaluate "is v in the MIS", reading neighborhoods of deeper vertices
    * from `dht`, memoizing through `cache`, charging every DHT read and
    * the longest dependent-lookup chain to `metrics`. Returns None iff
    * the process would exceed `budget` DHT queries (truncation).
    */
  def inMis(
      v: Long,
      adjV: Array[Long],
      seed: Long,
      dht: Dht[Array[Long]],
      cache: KvCache[Boolean],
      metrics: Metrics,
      budget: Long,
  ): Option[Boolean] = {
    cache.get(v) match {
      case Some(b) => return Some(b)
      case None    =>
    }
    var queries = 0L
    var maxDepth = 1
    var lastResult = false
    var aborted = false
    val stack = new scala.collection.mutable.ArrayBuffer[Frame](16)
    stack += new Frame(v, adjV)

    def finish(f: Frame, r: Boolean): Unit = {
      cache.put(f.v, r)
      lastResult = r
      stack.remove(stack.length - 1)
    }

    while (!aborted && stack.nonEmpty) {
      val f = stack.last
      var yielded = false
      if (f.awaiting) {
        f.awaiting = false
        if (lastResult) { finish(f, false); yielded = true }
        else f.idx += 1
      }
      while (!yielded) {
        if (f.idx >= f.adj.length) { finish(f, true); yielded = true }
        else {
          val u = f.adj(f.idx)
          cache.get(u) match {
            case Some(true)  => finish(f, false); yielded = true
            case Some(false) => f.idx += 1
            case None =>
              if (queries >= budget) { aborted = true; yielded = true }
              else {
                queries += 1
                val adjU = dht.require(u)
                f.awaiting = true
                stack += new Frame(u, adjU)
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

package repro.ampc

import org.apache.spark.util.AccumulatorV2

/** Immutable snapshot of the structural cost counters of one algorithm run.
  *
  * These are the quantities the paper reports directly (Table 3: shuffles;
  * Figures 3/9: bytes shuffled and KV bytes) or feeds into wall-clock via
  * the environment (Table 4) — here via [[CostModel]].
  *
  * @param shuffles        number of logical shuffles (costly rounds)
  * @param shuffleBytes    total bytes written through shuffles
  * @param kvQueries       number of DHT lookups that hit the "network"
  *                        (cache hits are excluded, as in the paper's
  *                        caching optimization)
  * @param kvReadBytes     bytes read from the DHT over the network
  * @param kvWriteBytes    bytes written into the DHT
  * @param cacheHits       lookups served from the per-run cache
  * @param maxChainDepth   longest chain of *dependent* DHT lookups (one
  *                        walk/search's serial critical path); latency
  *                        binds here, throughput elsewhere
  */
final case class RunMetrics(
    shuffles: Long = 0,
    shuffleBytes: Long = 0,
    kvQueries: Long = 0,
    kvReadBytes: Long = 0,
    kvWriteBytes: Long = 0,
    cacheHits: Long = 0,
    maxChainDepth: Long = 0,
)

/** The cost ledger of one algorithm run: a Spark accumulator whose six
  * counters are summed and whose chain depth is a maximum.
  *
  * `CoPartitioned.run` registers it. A task counts into its own copy,
  * which comes with the task's closure, and Spark merges that copy into
  * the driver's once the attempt succeeds: a failed attempt counts
  * nothing, and a result task counts once per partition however often it
  * is retried. No copy is locked: a task, or the driver, updates its own
  * from one thread.
  */
final class Metrics extends AccumulatorV2[RunMetrics, RunMetrics] {
  private var shuffles, shuffleBytes, kvQueries, kvReadBytes, kvWriteBytes, cacheHits, maxChain = 0L

  /** Record one logical shuffle moving approximately `bytes` bytes.
    * Called exactly once per conceptual dataflow shuffle; this is the
    * unit Table 3 counts.
    */
  def shuffle(bytes: Long): Unit = { shuffles += 1; shuffleBytes += bytes }

  def kvQuery(bytes: Long): Unit = { kvQueries += 1; kvReadBytes += bytes }

  def kvWrite(bytes: Long): Unit = kvWriteBytes += bytes

  def cacheHit(): Unit = cacheHits += 1

  /** Record the serial length of one completed chain of dependent lookups. */
  def chain(depth: Long): Unit = maxChain = math.max(maxChain, depth)

  def add(m: RunMetrics): Unit = {
    shuffles += m.shuffles; shuffleBytes += m.shuffleBytes; kvQueries += m.kvQueries; kvReadBytes += m.kvReadBytes
    kvWriteBytes += m.kvWriteBytes; cacheHits += m.cacheHits; chain(m.maxChainDepth)
  }

  def merge(other: AccumulatorV2[RunMetrics, RunMetrics]): Unit = add(other.value)

  def value: RunMetrics = RunMetrics(shuffles, shuffleBytes, kvQueries, kvReadBytes, kvWriteBytes, cacheHits, maxChain)

  def isZero: Boolean = value == RunMetrics()

  def reset(): Unit = { shuffles = 0; shuffleBytes = 0; kvQueries = 0; kvReadBytes = 0; kvWriteBytes = 0; cacheHits = 0; maxChain = 0 }

  def copy(): Metrics = { val c = new Metrics; c.add(value); c }

  /** Does nothing; `perfbench` is its only caller. */
  def close(): Unit = ()
}

object Metrics {
  /** An unregistered ledger, which counts on the driver only; `perfbench` is its only caller. */
  def fresh(tag: String): Metrics = new Metrics
}

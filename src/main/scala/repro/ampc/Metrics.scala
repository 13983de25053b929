package repro.ampc

import java.util.concurrent.atomic.{LongAccumulator, LongAdder}

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

/** A mutable, thread-safe cost ledger for one algorithm run.
  *
  * Ledgers are registered JVM-globally by id so that closures running on
  * executor threads (same JVM under `local[*]`) can record into the ledger
  * of the run that spawned them without serializing the ledger itself.
  */
final class Metrics private (val id: String) extends Serializable {
  @transient private lazy val state = Metrics.registry(id)

  /** Record one logical shuffle moving approximately `bytes` bytes.
    * Called exactly once per conceptual dataflow shuffle; this is the
    * unit Table 3 counts.
    */
  def shuffle(bytes: Long): Unit = {
    state.shuffles.increment()
    state.shuffleBytes.add(bytes)
  }

  def kvQuery(bytes: Long): Unit = {
    state.kvQueries.increment()
    state.kvReadBytes.add(bytes)
  }

  def kvWrite(bytes: Long): Unit = state.kvWriteBytes.add(bytes)

  def cacheHit(): Unit = state.cacheHits.increment()

  /** Record the serial length of one completed chain of dependent lookups. */
  def chain(depth: Long): Unit = state.maxChain.accumulate(depth)

  def snapshot: RunMetrics = RunMetrics(
    shuffles = state.shuffles.sum(),
    shuffleBytes = state.shuffleBytes.sum(),
    kvQueries = state.kvQueries.sum(),
    kvReadBytes = state.kvReadBytes.sum(),
    kvWriteBytes = state.kvWriteBytes.sum(),
    cacheHits = state.cacheHits.sum(),
    maxChainDepth = state.maxChain.get(),
  )

  def close(): Unit = Metrics.registry.close(id)
}

object Metrics {
  private[ampc] final class State {
    val shuffles, shuffleBytes, kvQueries, kvReadBytes, kvWriteBytes, cacheHits = new LongAdder
    val maxChain = new LongAccumulator(java.lang.Long.max(_, _), 0L)
  }

  private[ampc] val registry = new Registry[State]("cost ledger", () => new State)

  /** Create a fresh ledger with a process-unique id. */
  def fresh(tag: String): Metrics = new Metrics(registry.open(tag))
}

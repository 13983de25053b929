package repro.ampc

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Simulated distributed hash table — the side-channel that turns MPC into
  * AMPC (§2 of the paper).
  *
  * Under `local[*]` every executor is a thread of the driver JVM, so a
  * JVM-global concurrent map faithfully plays the role of the paper's
  * RDMA key-value store: any "machine" (task) can read any key written in
  * a previous round. What the real store charges in network latency and
  * bytes is *recorded* here (via [[Metrics]]) and priced by [[CostModel]].
  *
  * Instances are serializable handles: closures capture only the store id
  * and re-resolve the backing map lazily on the executor side.
  */
final class Dht[V](val id: String, metrics: Metrics) extends Serializable {
  @transient private lazy val map: ConcurrentHashMap[Long, (AnyRef, Int)] =
    DhtRegistry.resolve(id)

  /** Write a key-value pair of approximately `bytes` bytes. */
  def put(key: Long, value: V, bytes: Int): Unit = {
    map.put(key, (value.asInstanceOf[AnyRef], bytes))
    metrics.kvWrite(bytes.toLong)
  }

  /** Networked lookup: always counted as one KV query of the stored size. */
  def get(key: Long): Option[V] = {
    val e = map.get(key)
    if (e == null) { metrics.kvQuery(1L); None }
    else { metrics.kvQuery(e._2.toLong); Some(e._1.asInstanceOf[V]) }
  }

  /** Networked lookup of a key that must exist: counted as [[get]] counts
    * a hit; a miss throws instead of passing for an empty value.
    */
  def require(key: Long): V = {
    val e = map.get(key)
    if (e == null) throw new NoSuchElementException(s"DHT store $id has no key $key")
    metrics.kvQuery(e._2.toLong)
    e._1.asInstanceOf[V]
  }

  def close(): Unit = DhtRegistry.close(id)
}

object DhtRegistry {
  private val stores = new ConcurrentHashMap[String, ConcurrentHashMap[Long, (AnyRef, Int)]]()
  private val counter = new AtomicLong()

  /** Create a fresh store, under a process-unique id starting with `tag`,
    * charging reads/writes to `metrics`.
    */
  def create[V](tag: String, metrics: Metrics): Dht[V] = {
    val id = s"$tag-${counter.incrementAndGet()}"
    stores.put(id, new ConcurrentHashMap)
    new Dht[V](id, metrics)
  }

  /** The map of the open store `id`. A closed or never-created id throws:
    * a task that outlives its run must fail, not read a fresh empty store.
    */
  private[ampc] def resolve(id: String): ConcurrentHashMap[Long, (AnyRef, Int)] = {
    val s = stores.get(id)
    if (s == null) throw new IllegalStateException(s"DHT store $id is closed or was never created")
    s
  }

  private[ampc] def close(id: String): Unit = stores.remove(id): Unit

  /** How many stores are open. */
  private[ampc] def size: Int = stores.size
}

/** One task's result cache — the paper's *caching optimization* (§5.3).
  *
  * The AMPC algorithms memoize answers of the recursive query processes
  * ("is vertex v in the MIS", "whom is vertex v matched to", "which root
  * does v reach"). The entries live in a plain map that is not
  * serialized: Spark deserializes each task's closure afresh, so every
  * task starts with its own empty map and keeps it for that task alone. A
  * task is one partition, which plays one of the paper's machines with
  * its per-machine arrays. On the driver, one construction is one cache.
  * A cache is not thread-safe: one task, or one driver thread, uses it.
  * When not `enabled` every probe misses, reproducing the caching-off
  * ablation of Figure 4.
  */
final class KvCache[V](enabled: Boolean, metrics: Metrics) extends Serializable {
  @transient private lazy val map = mutable.LongMap.empty[V]

  def get(key: Long): Option[V] =
    if (!enabled) None
    else {
      val v = map.get(key)
      if (v.isDefined) metrics.cacheHit()
      v
    }

  def put(key: Long, value: V): Unit = if (enabled) map.update(key, value)

  def size: Int = map.size

  /** Drops every entry. */
  def close(): Unit = map.clear()
}

object KvCache {
  /** A new cache, as the constructor makes it; `tag` is not used. */
  def create[V](tag: String, enabled: Boolean, metrics: Metrics): KvCache[V] = new KvCache[V](enabled, metrics)
}

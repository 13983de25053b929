package repro.ampc

import java.util.concurrent.ConcurrentHashMap

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
    DhtRegistry.stores(id)

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

  def size: Int = map.size

  def close(): Unit = DhtRegistry.stores.close(id)
}

object DhtRegistry {
  private[ampc] val stores =
    new Registry[ConcurrentHashMap[Long, (AnyRef, Int)]]("DHT store", () => new ConcurrentHashMap)

  /** Create a fresh named store charging reads/writes to `metrics`. */
  def create[V](tag: String, metrics: Metrics): Dht[V] = new Dht[V](stores.open(tag), metrics)
}

/** Per-run result cache — the paper's *caching optimization* (§5.3).
  *
  * The AMPC algorithms memoize answers of the recursive query processes
  * ("is vertex v in the MIS", "whom is vertex v matched to"). When
  * `enabled` the cache is a JVM-shared map (an idealized version of the
  * paper's per-machine arrays — strictly stronger, which only widens the
  * measured caching-vs-no-caching gap in the same direction the paper
  * reports). When disabled every probe misses, reproducing the
  * caching-off ablation of Figure 4.
  */
final class KvCache[V](val id: String, val enabled: Boolean, metrics: Metrics)
    extends Serializable {
  @transient private lazy val map: ConcurrentHashMap[Long, AnyRef] =
    KvCache.caches(id)

  def get(key: Long): Option[V] =
    if (!enabled) None
    else {
      val v = map.get(key)
      if (v == null) None
      else { metrics.cacheHit(); Some(v.asInstanceOf[V]) }
    }

  def put(key: Long, value: V): Unit =
    if (enabled) map.put(key, value.asInstanceOf[AnyRef]): Unit

  def size: Int = map.size

  def close(): Unit = KvCache.caches.close(id)
}

object KvCache {
  private[ampc] val caches = new Registry[ConcurrentHashMap[Long, AnyRef]]("KV cache", () => new ConcurrentHashMap)

  def create[V](tag: String, enabled: Boolean, metrics: Metrics): KvCache[V] =
    new KvCache[V](caches.open(tag), enabled, metrics)
}

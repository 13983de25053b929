package repro.ampc

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

/** JVM-global state behind serializable handles, registered by id, so
  * that a handle a task deserializes resolves to the state of the run that
  * opened it. Resolving an id that is closed, or was never opened, throws:
  * a task that outlives its run must fail, not read fresh empty state.
  */
private[ampc] final class Registry[T](what: String, make: () => T) {
  private val entries = new ConcurrentHashMap[String, T]()
  private val counter = new AtomicLong()

  /** Open fresh state under a process-unique id starting with `tag`. */
  def open(tag: String): String = {
    val id = s"$tag-${counter.incrementAndGet()}"
    entries.put(id, make())
    id
  }

  def apply(id: String): T = {
    val e = entries.get(id)
    if (e == null) throw new IllegalStateException(s"$what $id is closed or was never created")
    e
  }

  def close(id: String): Unit = entries.remove(id): Unit
}

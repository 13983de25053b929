package org.apache.spark

/** Waits until every listener has seen every posted event. The listener
  * bus is `private[spark]`, hence this one-line bridge.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

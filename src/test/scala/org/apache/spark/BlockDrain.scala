package org.apache.spark

import org.apache.spark.storage.RDDBlockId

/** Waits, for at most a minute, until the driver's block manager holds no
  * block of an RDD that is no longer persisted: until every asynchronous
  * unpersist has finished. The block manager is `private[spark]`, hence
  * this bridge.
  */
object BlockDrain {
  def apply(sc: SparkContext): Unit = {
    def dropping = sc.env.blockManager.getMatchingBlockIds {
      case RDDBlockId(id, _) => !sc.persistentRdds.contains(id)
      case _                 => false
    }
    val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
    while (dropping.nonEmpty && System.nanoTime() < deadline) Thread.sleep(10)
  }
}

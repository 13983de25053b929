package org.apache.spark

import org.apache.spark.rdd.RDD

/** Drops an RDD's blocks as `RDD.unpersist` does, without its warning for
  * a locally checkpointed RDD. `unpersistRDD` is `private[spark]`, hence
  * this one-line bridge.
  */
object Unpersist {
  def apply(rdd: RDD[_]): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking = false)
}

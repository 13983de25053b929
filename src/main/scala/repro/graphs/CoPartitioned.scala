package repro.graphs

import org.apache.spark.{HashPartitioner, Unpersist}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable
import scala.reflect.ClassTag

/** The pair-RDD plumbing the AMPC rounds and the MPC baselines share.
  * Every table is keyed by vertex under one `HashPartitioner`, so a lookup
  * of one table's rows in another is a narrow join (co-partitioning as in
  * Zaharia et al., NSDI 2012), and the only wide steps left are the
  * shuffles an algorithm declares. One instance serves one run, and holds
  * the RDDs it keeps until [[release]].
  */
private[repro] final class CoPartitioned(spark: SparkSession) {
  private val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
  // Spark picks Kryo for a shuffle of primitive keys and values, and Kryo
  // cannot start on Java 17 without `--add-opens`; name Java's instead.
  private val ser = new JavaSerializer(spark.sparkContext.getConf)
  private val held = mutable.ArrayBuffer.empty[RDD[_]]

  /** `rdd`, locally checkpointed by the first action that computes it. */
  def checkpoint[T](rdd: RDD[T]): RDD[T] = { held += rdd.localCheckpoint(); rdd }

  /** `rdd`, cached by the first action that computes it. */
  def keep[T](rdd: RDD[T]): RDD[T] = { held += rdd.persist(StorageLevel.MEMORY_AND_DISK); rdd }

  /** Drops the blocks of every RDD [[checkpoint]] or [[keep]] took. Not
    * through `RDD.unpersist`, which warns for each locally checkpointed one
    * that its lineage is gone: here that is the intent.
    */
  def release(): Unit = held.foreach(Unpersist(_))

  /** `rdd` moved to the partitions of its keys. */
  def shuffled[V: ClassTag](rdd: RDD[(Long, V)]): RDD[(Long, V)] =
    new ShuffledRDD[Long, V, V](rdd, part).setSerializer(ser)

  /** One value per key, combined on the map side before the shuffle. */
  def combined[K: ClassTag, V: ClassTag, C: ClassTag](rdd: RDD[(K, V)])(create: V => C, add: (C, V) => C, merge: (C, C) => C): RDD[(K, C)] =
    rdd.combineByKeyWithClassTag(create, add, merge, part, mapSideCombine = true, ser)

  def reduced[K: ClassTag, V: ClassTag](rdd: RDD[(K, V)])(f: (V, V) => V): RDD[(K, V)] =
    combined(rdd)(identity[V], f, f)

  /** The distinct values of every key. */
  def grouped(rdd: RDD[(Long, Long)]): RDD[(Long, mutable.HashSet[Long])] =
    combined[Long, Long, mutable.HashSet[Long]](rdd)(mutable.HashSet(_), _ += _, _ ++= _)

  /** One row per vertex of `edges`' (src, dst) rows taken both ways: its
    * neighbors in ascending order, a repeated edge repeated.
    */
  def adjacency(edges: DataFrame): RDD[(Long, Array[Long])] =
    shuffled(pairs(edges).flatMap { case (u, v) => Iterator((u, v), (v, u)) }).mapPartitions(
      { it =>
        val nbrs = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
        it.foreach { case (v, u) => nbrs.getOrElseUpdate(v, new mutable.ArrayBuilder.ofLong) += u }
        nbrs.iterator.map { case (v, b) => (v, b.result().sorted) }
      },
      preservesPartitioning = true,
    )

  /** `edges`' (src, dst) rows as given. */
  def pairs(edges: DataFrame): RDD[(Long, Long)] = {
    import spark.implicits._
    edges.select("src", "dst").as[(Long, Long)].rdd
  }

  /** `edges`' (src, dst, weight) rows as given. */
  def triples(edges: DataFrame): RDD[(Long, Long, Double)] = {
    import spark.implicits._
    edges.select("src", "dst", "weight").as[(Long, Long, Double)].rdd
  }

  /** `f(key, value, table's value for the key)` for every row. This is a
    * narrow hash join: partition i of `rows` and of `table` hold the same
    * keys. Set `keepsKeys` when `f` emits `(key, _)` pairs only, so that
    * the result keeps the partitioner.
    */
  def lookup[V, W, R: ClassTag](rows: RDD[(Long, V)], table: RDD[(Long, W)], keepsKeys: Boolean = false)(
      f: (Long, V, Option[W]) => IterableOnce[R]): RDD[R] = {
    require(rows.partitioner.contains(part) && table.partitioner.contains(part), "rows and table are not on the shared partitioner")
    rows.zipPartitions(table, keepsKeys) { (rs, ts) =>
      val of = mutable.LongMap.from(ts)
      rs.flatMap { case (k, v) => f(k, v, of.get(k)) }
    }
  }

  /** [[lookup]] in a parent table: `f(value, parent of key)`, where a
    * vertex without a parent is its own.
    */
  def withParents[V, R: ClassTag](rows: RDD[(Long, V)], parents: RDD[(Long, Long)])(f: (V, Long) => IterableOnce[R]): RDD[R] =
    lookup(rows, parents)((k, v, p: Option[Long]) => f(v, p.getOrElse(k)))

  /** The number of `rows`, their summed `length`s and every item `pick`
    * selects, in one Spark action.
    */
  def tally[T, R: ClassTag](rows: RDD[T])(length: T => Long, pick: T => Option[R]): (Long, Long, Array[R]) = {
    val parts = rows.mapPartitions { it =>
      var (n, total) = (0L, 0L)
      val picked = Array.newBuilder[R]
      it.foreach { r => n += 1; total += length(r); picked ++= pick(r) }
      Iterator.single((n, total, picked.result()))
    }.collect()
    (parts.map(_._1).sum, parts.map(_._2).sum, parts.flatMap(_._3))
  }
}

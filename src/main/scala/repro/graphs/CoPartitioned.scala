package repro.graphs

import org.apache.spark.{HashPartitioner, TaskContext, Unpersist}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DoubleType, LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel
import repro.ampc.{Dht, DhtRegistry, KvCache, Metrics}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

/** The scope of one algorithm run, and the pair-RDD plumbing the AMPC
  * rounds and the MPC baselines share.
  *
  * [[CoPartitioned.run]] opens a kit for one run. The kit holds the run's
  * cost ledger, the DHT stores and caches it hands out, and the RDDs it
  * keeps; when the run returns or throws, it drops the kept blocks, then
  * closes every store and cache. In AMPC a store lives for one run only
  * (§2, and [19]), so no store outlives the scope. The kit is not
  * serializable: a closure names the handles it uses, never the kit.
  *
  * Every table is keyed by vertex under one `HashPartitioner`, so a lookup
  * of one table's rows in another is a narrow join (co-partitioning as in
  * Zaharia et al., NSDI 2012), and the only wide steps left are the
  * shuffles an algorithm declares.
  *
  * At this scale Spark's own bookkeeping costs more than the work, so the
  * kit keeps out of four parts of it:
  *  - a combine runs in a hash map of the kit's on each side of a plain
  *    shuffle, not in Spark's aggregator, whose map re-measures its size
  *    as it grows. It cannot spill: a combine holds its partition in
  *    memory, as the DHT holds the whole graph in one JVM;
  *  - a kept RDD is stored as one array per partition, which Spark
  *    measures once, not row by row;
  *  - an action is one `runJob` of a kit closure. Spark's `collect` and
  *    `count` make it clean closures declared in its large `RDD` and
  *    `SparkContext` classes, which costs more than a small job;
  *  - a shuffle is written by a [[KitSerializer]]: each key and value
  *    field by field, by the [[Codec]] of its type, with no stream header
  *    or class descriptor. Spark would pick Kryo for primitive keys and
  *    values, which does not start on Java 17 without `--add-opens`, and
  *    Java serialization, which cost more than the work, otherwise.
  */
private[repro] final class CoPartitioned private (spark: SparkSession) {
  private val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
  private val held = mutable.ArrayBuffer.empty[RDD[_]]
  private val stores = mutable.ArrayBuffer.empty[Dht[_]]
  private val caches = mutable.ArrayBuffer.empty[KvCache[_]]

  /** The run's cost ledger, registered with Spark so that tasks count into it. */
  val metrics = new Metrics
  spark.sparkContext.register(metrics)

  /** A DHT store for this run, charging [[metrics]]. */
  def dht[V](name: String): Dht[V] = {
    CoPartitioned.requireLocal(spark.sparkContext.master)
    val d = DhtRegistry.create[V](name, metrics)
    stores += d
    d
  }

  /** A result cache for this run, charging [[metrics]]; when not
    * `enabled` every probe misses.
    */
  def cache[V](name: String, enabled: Boolean): KvCache[V] = {
    val c = KvCache.create[V](name, enabled, metrics)
    caches += c
    c
  }

  /** Drops the blocks of every RDD [[checkpoint]] or [[keep]] took (not
    * through `RDD.unpersist`, which warns for each locally checkpointed one
    * that its lineage is gone: here that is the intent), then closes every
    * store and cache.
    */
  private def close(): Unit =
    try held.foreach(Unpersist(_))
    finally { stores.foreach(_.close()); caches.foreach(_.close()) }

  /** `rdd`, locally checkpointed by the first action that computes it. */
  def checkpoint[T: ClassTag](rdd: RDD[T]): RDD[T] = stored(rdd)(b => held += b.localCheckpoint())

  /** `rdd`, cached by the first action that computes it. */
  def keep[T: ClassTag](rdd: RDD[T]): RDD[T] = stored(rdd)(b => held += b.persist(StorageLevel.MEMORY_AND_DISK))

  /** [[checkpoint]] for an RDD a run returns: the scope leaves it. */
  def lasting[T: ClassTag](rdd: RDD[T]): RDD[T] = stored(rdd)(_.localCheckpoint())

  /** `rdd` read back from one array per partition, which `store` marks. */
  private def stored[T: ClassTag](rdd: RDD[T])(store: RDD[Array[T]] => Unit): RDD[T] = {
    val blocks = rdd.mapPartitions(it => Iterator.single(it.toArray), preservesPartitioning = true)
    store(blocks)
    blocks.mapPartitions(_.flatMap(_.iterator), preservesPartitioning = true)
  }

  /** `rdd` moved to the partitions of its keys. */
  def shuffled[V: ClassTag: Codec](rdd: RDD[(Long, V)]): RDD[(Long, V)] = exchange(rdd)

  /** One value per key, combined on the map side before the shuffle. */
  def combined[K: ClassTag: Codec, V: ClassTag, C: ClassTag: Codec](rdd: RDD[(K, V)])(
      create: V => C, add: (C, V) => C, merge: (C, C) => C): RDD[(K, C)] =
    exchange(rdd.mapPartitions(CoPartitioned.combine(_)(create, add)))
      .mapPartitions(CoPartitioned.combine(_)(identity[C], merge), preservesPartitioning = true)

  def reduced[K: ClassTag: Codec, V: ClassTag: Codec](rdd: RDD[(K, V)])(f: (V, V) => V): RDD[(K, V)] =
    combined(rdd)(identity[V], f, f)

  /** The one wide step: a plain shuffle onto [[part]], written by the
    * codecs of its key and value.
    */
  private def exchange[K: ClassTag: Codec, V: ClassTag: Codec](rdd: RDD[(K, V)]): RDD[(K, V)] =
    new ShuffledRDD[K, V, V](rdd, part).setSerializer(new KitSerializer(Codec[K], Codec[V]))

  /** The distinct values of every key, ascending. */
  def grouped(rdd: RDD[(Long, Long)]): RDD[(Long, Array[Long])] = lists(rdd)(CoPartitioned.sortedDistinct)

  /** One row per vertex of `edges`' (src, dst) rows taken both ways: its
    * neighbors in ascending order, a repeated edge repeated.
    */
  def adjacency(edges: DataFrame): RDD[(Long, Array[Long])] =
    lists(pairs(edges).flatMap { case (u, v) => Iterator((u, v), (v, u)) })(_.sorted)

  /** Every key's values as one array, passed through `finish`. */
  private def lists(rdd: RDD[(Long, Long)])(finish: Array[Long] => Array[Long]): RDD[(Long, Array[Long])] =
    shuffled(rdd).mapPartitions(
      { it =>
        val values = mutable.LongMap.empty[mutable.ArrayBuilder.ofLong]
        it.foreach { case (k, v) => values.getOrElseUpdate(k, new mutable.ArrayBuilder.ofLong) += v }
        values.iterator.map { case (k, b) => (k, finish(b.result())) }
      },
      preservesPartitioning = true,
    )

  /** `edges`' (src, dst) rows as given. */
  def pairs(edges: DataFrame): RDD[(Long, Long)] =
    CoPartitioned.rows(edges, "src" -> LongType, "dst" -> LongType)((r, at) => (r.getLong(at(0)), r.getLong(at(1))))

  /** `edges`' (src, dst, weight) rows as given. */
  def triples(edges: DataFrame): RDD[(Long, Long, Double)] =
    CoPartitioned.rows(edges, "src" -> LongType, "dst" -> LongType, "weight" -> DoubleType)(
      (r, at) => (r.getLong(at(0)), r.getLong(at(1)), r.getDouble(at(2))))

  /** `rows` as a DataFrame of two non-null long columns, built from an
    * explicit schema: the tuple encoder `toDF` derives costs several times
    * more per call.
    */
  def frame(rows: RDD[(Long, Long)], first: String, second: String): DataFrame =
    spark.createDataFrame(
      rows.map { case (a, b) => Row(a, b) },
      StructType(Seq(first, second).map(StructField(_, LongType, nullable = false))))

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
    val parts = CoPartitioned.job(rows) { it =>
      var (n, total) = (0L, 0L)
      val picked = Array.newBuilder[R]
      it.foreach { r => n += 1; total += length(r); picked ++= pick(r) }
      (n, total, picked.result())
    }
    (parts.map(_._1).sum, parts.map(_._2).sum, parts.flatMap(_._3))
  }

  /** `f` over every partition of `rdd`, in one Spark action. */
  def perPartition[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => U): Array[U] = CoPartitioned.job(rdd)(f)

  /** Every row of `rdd`, in partition order, in one Spark action. */
  def collect[T: ClassTag](rdd: RDD[T]): Array[T] = Array.concat(CoPartitioned.job(rdd)(_.toArray).toSeq: _*)

  /** The number of rows of `rdd`, in one Spark action. */
  def count[T](rdd: RDD[T]): Long = CoPartitioned.job(rdd)(_.size.toLong).sum
}

private[repro] object CoPartitioned {

  /** `body` with a fresh kit, which then drops the blocks it kept and
    * closes every store and cache it opened, whether `body` returns or throws.
    */
  def run[R](spark: SparkSession)(body: CoPartitioned => R): R = {
    val kit = new CoPartitioned(spark)
    try body(kit)
    finally kit.close()
  }

  /** The DHT is one JVM's memory: under any master but `local` every
    * executor would write and read its own empty store.
    */
  private[graphs] def requireLocal(master: String): Unit =
    require(
      master == "local" || master.startsWith("local["),
      s"AMPC algorithms need a local master (the DHT lives in one JVM), got $master",
    )

  /** `f` over every partition of `rdd`, in one Spark job. */
  private def job[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => U): Array[U] = {
    val out = new Array[U](rdd.partitions.length)
    rdd.sparkContext.runJob(rdd, (_: TaskContext, it: Iterator[T]) => f(it), out.indices, (i: Int, u: U) => out(i) = u)
    out
  }

  /** One (key, combined value) per distinct key of `it`. */
  private def combine[K, V, C](it: Iterator[(K, V)])(create: V => C, add: (C, V) => C): Iterator[(K, C)] = {
    val acc = new java.util.HashMap[K, Any]
    it.foreach { case (k, v) =>
      val c = acc.get(k)
      acc.put(k, if (c == null) create(v) else add(c.asInstanceOf[C], v))
    }
    acc.entrySet.iterator.asScala.map(e => (e.getKey, e.getValue.asInstanceOf[C]))
  }

  /** `a`'s distinct values in ascending order (`a` is sorted in place). */
  private[repro] def sortedDistinct(a: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(a)
    var n = 0
    var i = 0
    while (i < a.length) {
      if (n == 0 || a(i) != a(n - 1)) { a(n) = a(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(a, n)
  }

  /** `0 until n` sorted stably by `cmp` over indices: a bottom-up merge
    * sort on primitive ints, so no index or key is boxed.
    */
  private[repro] def indexSort(n: Int)(cmp: (Int, Int) => Int): Array[Int] = {
    var a = Array.range(0, n)
    var b = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var i = lo
        var j = mid
        var k = lo
        while (k < hi) {
          if (j >= hi || i < mid && cmp(a(i), a(j)) <= 0) { b(k) = a(i); i += 1 }
          else { b(k) = a(j); j += 1 }
          k += 1
        }
        lo = hi
      }
      val t = a; a = b; b = t
      width *= 2
    }
    a
  }

  /** The named columns of `df`, each row read by `read` from the
    * columns' ordinals, without the typed `Dataset` path (its encoders and
    * a closure Spark declares). When every column has its type, the rows
    * come from `df`'s own `queryExecution.toRdd`, which the Dataset plans
    * once; otherwise from a `select` that casts the columns that differ.
    */
  private def rows[T: ClassTag](df: DataFrame, cols: (String, DataType)*)(read: (InternalRow, Array[Int]) => T): RDD[T] = {
    val names = cols.map(_._1)
    def typed(name: String, t: DataType) = df.schema.exists(f => f.name == name && f.dataType == t)
    val (input, at) =
      if (cols.forall { case (n, t) => typed(n, t) }) (df, names.map(df.schema.fieldIndex).toArray)
      else (df.select(cols.map { case (n, t) => if (typed(n, t)) col(n) else col(n).cast(t) as n }: _*), names.indices.toArray)
    input.queryExecution.toRdd.mapPartitions(_.map { r =>
      var i = 0
      while (i < at.length) { require(!r.isNullAt(at(i)), s"null in column ${names(i)}"); i += 1 }
      read(r, at)
    })
  }
}

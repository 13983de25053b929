package repro.graphs

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}
import org.apache.spark.{HashPartitioner, ShuffleDependency, SparkException}
import org.apache.spark.rdd.RDD
import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, LongType, StructField, StructType}
import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import repro.SparkSpec
import repro.core.AmpcMsf.{Arc, Relabeled}
import repro.mpc.MpcMsf.Edge
import scala.reflect.ClassTag

/** Each [[CoPartitioned]] primitive against Spark's own, on random keyed
  * rows laid out in explicit partitions: some empty, and one key in every
  * partition that has rows.
  */
class CoPartitionedSpec extends SparkSpec {
  import CoPartitionedSpec._

  private val Hot = 7L

  private val layouts: Gen[List[List[(Long, Long)]]] = {
    val row = Gen.zip(Gen.choose(0L, 20L), Gen.choose(-50L, 50L))
    val part = Gen.frequency(1 -> Gen.const(Nil), 3 -> Gen.zip(Gen.choose(-50L, 50L), Gen.listOf(row)).map { case (v, rs) => (Hot, v) :: rs })
    Gen.choose(1, 5).flatMap(Gen.listOfN(_, part)).map(Nil :: _)
  }

  /** One partition per list of `layout`. */
  private def keyed(layout: List[List[(Long, Long)]]): RDD[(Long, Long)] =
    spark.sparkContext.parallelize(layout, layout.size).flatMap(identity)

  /** `prop` on layouts, never shrunk: a shrunk layout may lose the
    * partitions the property is about.
    */
  private def check(prop: List[List[(Long, Long)]] => Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(15).withWorkers(1), forAllNoShrink(layouts)(prop))
    assert(r.passed, r.status)
  }

  /** Spark's combine, under both `combineByKey` and `reduceByKey`, with
    * Java serialization named: for primitive keys and values Spark would
    * pick Kryo, which does not start on Java 17.
    */
  private def sparkCombined[K: ClassTag, V: ClassTag, C: ClassTag](rdd: RDD[(K, V)])(create: V => C, add: (C, V) => C, merge: (C, C) => C) =
    rdd.combineByKeyWithClassTag(create, add, merge, new HashPartitioner(3), mapSideCombine = true, new JavaSerializer(spark.sparkContext.getConf))

  private def sorted[K: Ordering, V: Ordering](rows: Array[(K, V)]): Seq[(K, V)] = rows.toSeq.sorted

  test("combined and reduced equal combineByKey and reduceByKey, on Long and (Long, Long) keys") {
    val create = (v: Long) => (v, 1L)
    val add = (c: (Long, Long), v: Long) => (math.min(c._1, v), c._2 + 1)
    val merge = (a: (Long, Long), b: (Long, Long)) => (math.min(a._1, b._1), a._2 + b._2)
    check { layout =>
      CoPartitioned.run(spark) { kit =>
        val rows = keyed(layout)
        val pairKeyed = rows.map { case (k, v) => ((k % 3, k), v) }
        val combined = sorted(kit.combined(rows)(create, add, merge).collect()) == sorted(sparkCombined(rows)(create, add, merge).collect())
        val reduced = sorted(kit.reduced(rows)(_ + _).collect()) == sorted(sparkCombined[Long, Long, Long](rows)(identity, _ + _, _ + _).collect())
        val pairCombined =
          sorted(kit.combined(pairKeyed)(create, add, merge).collect()) == sorted(sparkCombined(pairKeyed)(create, add, merge).collect())
        val pairReduced = sorted(kit.reduced(pairKeyed)(math.max).collect()) == sorted(pairKeyed.reduceByKey(math.max).collect())
        combined :| "combined" && reduced :| "reduced" && pairCombined :| "combined on pair keys" && pairReduced :| "reduced on pair keys"
      }
    }
  }

  /** `rows`' bits, taken where the rows are: a collect would Java-serialize
    * them, which drops a NaN's payload.
    */
  private def bitsOf(rows: RDD[_]): Seq[String] = rows.map(bits(_).toString).collect().toSeq.sorted

  private def bitsOf(rows: Iterable[Any]): Seq[String] = rows.map(bits(_).toString).toSeq.sorted

  private val longs: Gen[Long] = Gen.oneOf(Gen.oneOf(Long.MinValue, Long.MaxValue, 0L, -1L), Arbitrary.arbitrary[Long])
  private val doubles: Gen[Double] = Gen.oneOf(Gen.oneOf(specialWeights.toSeq), Arbitrary.arbitrary[Double])
  private val booleans: Gen[Boolean] = Gen.oneOf(true, false)
  private val arcs: Gen[Arc] = Gen.zip(longs, doubles, booleans).map((Arc.apply _).tupled)
  private val relabeled: Gen[Relabeled] = Gen.zip(longs, longs, doubles, longs).map((Relabeled.apply _).tupled)
  private val edges: Gen[Edge] = Gen.zip(longs, doubles, longs, longs).map((Edge.apply _).tupled)

  /** Written as (key, value) records by a kit serializer's stream and read
    * back, `rows` keep every bit.
    */
  private def roundTrips[K: Codec, V: Codec](keys: Gen[K], values: Gen[V]): Prop =
    forAllNoShrink(Gen.listOf(Gen.zip(keys, values))) { rows =>
      val ser = new KitSerializer(Codec[K], Codec[V]).newInstance()
      val bytes = new ByteArrayOutputStream
      val out = ser.serializeStream(bytes)
      rows.foreach { case (k, v) => out.writeKey[Any](k).writeValue[Any](v) }
      out.close()
      val back = ser.deserializeStream(new ByteArrayInputStream(bytes.toByteArray)).asKeyValueIterator.toList
      propBoolean(back.map(bits) == rows.map(bits)) :| s"${rows.size} rows"
    }

  test("every codec round-trips through a kit serialization stream, bit for bit") {
    val props = Seq(
      "Long" -> roundTrips(longs, longs),
      "Boolean" -> roundTrips(longs, booleans),
      "Double" -> roundTrips(longs, doubles),
      "(Long, Long)" -> roundTrips(Gen.zip(longs, longs), Gen.zip(longs, longs)),
      "Arc" -> roundTrips(longs, arcs),
      "Relabeled" -> roundTrips(Gen.zip(longs, longs), relabeled),
      "Edge" -> roundTrips(longs, edges),
      "(Edge, Long)" -> roundTrips(longs, Gen.zip(edges, longs)),
    )
    for ((name, prop) <- props) {
      val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(50).withWorkers(1), prop)
      assert(r.passed, s"$name: ${r.status}")
    }
  }

  test("an empty kit serialization stream reads as no records") {
    val ser = new KitSerializer(Codec[(Long, Long)], Codec[Edge]).newInstance()
    assert(ser.deserializeStream(new ByteArrayInputStream(Array.emptyByteArray)).asKeyValueIterator.isEmpty)
  }

  test("each shuffled record type keeps its bits through the kit's shuffled, combined and reduced") {
    check { layout =>
      CoPartitioned.run(spark) { kit =>
        val rows = keyed(layout)
        def moved[V: ClassTag: Codec](make: (Long, Long) => V): Boolean = {
          val in = rows.map { case (k, v) => (k, make(k, v)) }
          bitsOf(kit.shuffled(in)) == bitsOf(in)
        }
        val local = rows.collect().toSeq
        val es = rows.map { case (k, v) => (k, Edge(v, weight(v), k, v)) }
        val minEdges = kit.combined[Long, Edge, (Edge, Long)](es)(e => (e, 1L), (c, e) => (lower(c._1, e), c._2 + 1), (c, d) => (lower(c._1, d._1), c._2 + d._2))
        val expectedMinEdges = local.groupBy(_._1).map { case (k, vs) =>
          (k, (vs.map { case (_, v) => Edge(v, weight(v), k, v) }.reduce(lower), vs.size.toLong))
        }
        val rs = rows.map { case (k, v) => ((k % 3, k), Relabeled(k, v, weight(v), v)) }
        val expectedNearest = local.groupBy { case (k, _) => (k % 3, k) }.map { case (kk, vs) =>
          (kk, vs.map { case (k, v) => Relabeled(k, v, weight(v), v) }.reduce(nearer))
        }
        val marks = kit.reduced(rows.map { case (k, v) => (k, v % 2 == 0) })(_ || _)
        val expectedMarks = local.groupBy(_._1).map { case (k, vs) => (k, vs.exists(_._2 % 2 == 0)) }
        moved((_, v) => v) :| "Long" &&
        moved((_, v) => Arc(v, weight(v), v % 2 == 0)) :| "Arc" &&
        moved((k, v) => Relabeled(k, v, weight(v), v)) :| "Relabeled" &&
        moved((k, v) => Edge(v, weight(v), k, v)) :| "Edge" &&
        (bitsOf(minEdges) == bitsOf(expectedMinEdges)) :| "combined (Edge, Long)" &&
        (bitsOf(kit.reduced(rs)(nearer)) == bitsOf(expectedNearest)) :| "reduced Relabeled on pair keys" &&
        (bitsOf(marks) == bitsOf(expectedMarks)) :| "reduced Boolean"
      }
    }
  }

  test("every shuffle the kit creates names the kit serializer") {
    def shuffles(rdd: RDD[_]): Seq[ShuffleDependency[_, _, _]] = rdd.dependencies.flatMap {
      case s: ShuffleDependency[_, _, _] => s +: shuffles(s.rdd)
      case d                             => shuffles(d.rdd)
    }
    CoPartitioned.run(spark) { kit =>
      val rows = keyed(List(Nil, List((1L, 2L), (3L, 4L))))
      val edgeRows = spark.createDataFrame(Seq((1L, 2L), (2L, 3L))).toDF("src", "dst")
      val made = Seq(
        kit.shuffled(rows),
        kit.combined[Long, Long, (Long, Long)](rows)(v => (v, 1L), (c, v) => (c._1 + v, c._2 + 1), (c, d) => (c._1 + d._1, c._2 + d._2)),
        kit.reduced(rows.map { case (k, v) => ((k, v), v > 2) })(_ || _),
        kit.grouped(rows),
        kit.adjacency(edgeRows),
      )
      val deps = made.flatMap(shuffles)
      assert(deps.size == made.size)
      deps.foreach(d => assert(d.serializer.isInstanceOf[KitSerializer[_, _]], d.serializer.getClass.getName))
    }
  }

  // On boxed values, for which Spark keeps the Java serializer.
  test("grouped equals a distinct groupByKey, ascending") {
    check { layout =>
      val rows = keyed(layout)
      val ours = CoPartitioned.run(spark)(_.grouped(rows).collect().map { case (k, vs) => (k, vs.toSeq) })
      val theirs = rows.mapValues(Long.box).groupByKey().collect().map { case (k, vs) => (k, vs.map(Long.unbox).toSeq.distinct.sorted) }
      propBoolean(ours.toSeq.sortBy(_._1) == theirs.toSeq.sortBy(_._1))
    }
  }

  test("keep and checkpoint keep the shared partitioner and the rows, and release drops their blocks") {
    val sc = spark.sparkContext
    check { layout =>
      val before = sc.getPersistentRDDs.keySet
      val (inScope, stored) = CoPartitioned.run(spark) { kit =>
        val on = kit.shuffled(keyed(layout))
        val kept = kit.keep(on)
        val checkpointed = kit.checkpoint(on.mapValues(_ + 1))
        val rows = sorted(on.collect())
        val keptRows = sorted(kept.collect()) == rows
        val checkpointedRows = sorted(checkpointed.collect()) == rows.map { case (k, v) => (k, v + 1) }
        val partitioner = kept.partitioner == on.partitioner && checkpointed.partitioner == on.partitioner
        (keptRows :| "kept rows" && checkpointedRows :| "checkpointed rows" && partitioner :| "partitioner",
          sc.getPersistentRDDs.keySet.diff(before).size)
      }
      val released = sc.getPersistentRDDs.keySet.diff(before).isEmpty
      inScope && (stored == 2) :| s"$stored stored RDDs" && released :| "released when the scope closes"
    }
  }

  test("the kit's collect and count equal RDD.collect and RDD.count") {
    check { layout =>
      CoPartitioned.run(spark) { kit =>
        val rows = keyed(layout)
        val collected = kit.collect(rows).toSeq == rows.collect().toSeq
        val counted = kit.count(rows) == rows.count()
        collected :| "collect" && counted :| "count"
      }
    }
  }

  private val weightedRows = Seq((1L, 2L, 0.5), (3L, 1L, -1.5), (2L, 2L, 2.0), (-4L, 7L, 0.0), (1L, 2L, 0.5))

  private def weightedFrame: DataFrame = {
    import spark.implicits._
    weightedRows.toDF("src", "dst", "weight")
  }

  // Read by ordinal from the DataFrame's own rows when the types match
  // (also with the columns in another order), through a cast otherwise.
  test("pairs and triples read the same rows from Long and Int src and dst columns") {
    val longs = weightedFrame
    val frames = Seq(
      "Long columns" -> longs,
      "Long columns in another order" -> longs.select("weight", "dst", "src"),
      "Int columns, a Float weight" ->
        longs.select(col("src").cast("int") as "src", col("dst").cast("int") as "dst", col("weight").cast("float") as "weight"),
    )
    CoPartitioned.run(spark) { kit =>
      for ((name, df) <- frames) {
        assert(kit.collect(kit.pairs(df)).toSeq.sorted == weightedRows.map(r => (r._1, r._2)).sorted, name)
        assert(kit.collect(kit.triples(df)).toSeq.sorted == weightedRows.sorted, name)
      }
    }
  }

  test("a null in a read column throws, naming the column") {
    def frame(t: DataType, rows: Row*): DataFrame = spark.createDataFrame(
      java.util.Arrays.asList(rows: _*),
      StructType(Seq(StructField("src", t), StructField("dst", t), StructField("weight", DoubleType))))
    val nullDst = frame(LongType, Row(1L, 2L, 1.0), Row(3L, null, 1.0))
    val nullSrc = frame(IntegerType, Row(1, 2, 1.0), Row(null, 4, 1.0))
    val nullWeight = frame(LongType, Row(1L, 2L, 1.0), Row(3L, 4L, null))
    CoPartitioned.run(spark) { kit =>
      for ((name, read) <- Seq[(String, () => Array[_])](
          "dst" -> (() => kit.collect(kit.pairs(nullDst))),
          "src" -> (() => kit.collect(kit.pairs(nullSrc))),
          "weight" -> (() => kit.collect(kit.triples(nullWeight))),
        )) {
        val e = intercept[SparkException](read())
        assert(e.getMessage.contains(s"null in column $name"), e.getMessage)
      }
      // A column the read does not take may hold a null.
      assert(kit.collect(kit.pairs(nullWeight)).toSeq == Seq((1L, 2L), (3L, 4L)))
    }
  }

  test("reading one DataFrame twice gives the same rows") {
    val df = weightedFrame
    val runs = Seq.fill(2)(CoPartitioned.run(spark) { kit =>
      (kit.collect(kit.pairs(df)).toSeq, kit.collect(kit.pairs(df)).toSeq, kit.collect(kit.triples(df)).toSeq)
    })
    assert(runs.distinct.size == 1)
    val (pairs, again, triples) = runs.head
    assert(pairs == again && pairs.sorted == weightedRows.map(r => (r._1, r._2)).sorted && triples.sorted == weightedRows.sorted)
  }

  // The DHT is one JVM's memory, so the scope hands out a store only
  // under a local master.
  for (master <- Seq("local", "local[4]", "local[4,3]"))
    test(s"a $master master is accepted") {
      CoPartitioned.requireLocal(master)
    }

  for (master <- Seq("local-cluster[2,1,1024]", "spark://host:7077"))
    test(s"a $master master is rejected") {
      val e = intercept[IllegalArgumentException](CoPartitioned.requireLocal(master))
      assert(e.getMessage.contains(master))
    }
}

/** What the spec's Spark closures use, outside the (unserializable) suite. */
private object CoPartitionedSpec {
  val specialWeights: Array[Double] = Array(
    -0.0, 0.0, Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000123L), // a NaN with a payload
    Double.PositiveInfinity, Double.NegativeInfinity, Double.MinPositiveValue, 1.5, -2.25)

  def weight(v: Long): Double = specialWeights(Math.floorMod(v, specialWeights.length.toLong).toInt)

  /** `x` with every Double, also inside a tuple or case class, as its raw
    * bits, so that NaN payloads and -0.0 compare.
    */
  def bits(x: Any): Any = x match {
    case d: Double  => java.lang.Double.doubleToRawLongBits(d)
    case p: Product => (p.productPrefix, p.productIterator.map(bits).toList)
    case other      => other
  }

  def lower(a: Edge, b: Edge): Edge = if (a.to <= b.to) a else b

  def nearer(a: Relabeled, b: Relabeled): Relabeled = if (a.dst <= b.dst) a else b
}

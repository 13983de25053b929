package repro.graphs

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.serializer.JavaSerializer
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.{forAllNoShrink, propBoolean}
import repro.SparkSpec
import scala.reflect.ClassTag

/** Each [[CoPartitioned]] primitive against Spark's own, on random keyed
  * rows laid out in explicit partitions: some empty, and one key in every
  * partition that has rows.
  */
class CoPartitionedSpec extends SparkSpec {

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
    * Java serialization named as the kit names it: for primitive keys and
    * values Spark would pick Kryo, which does not start on Java 17.
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

package repro.bench

import org.apache.spark.BlockDrain
import org.scalatest.BeforeAndAfterAll
import repro.SparkSpec
import repro.eval.{TableChecks, Tables}

/** Benchmark harnesses — one suite per evaluation table, run at
  * SF≈0.1 scale via `sbt "bench/test"`. Each prints the table that
  * EXPERIMENTS.md records next to the paper's numbers, then checks it
  * with the same [[TableChecks]] that `TablesSpec` runs at test scale.
  *
  * Scale note: set REPRO_BENCH_SCALE=small to fall back to the unit-test
  * scale (useful for a fast smoke run of the bench harness itself).
  */
trait BenchScale extends BeforeAndAfterAll { this: SparkSpec =>
  def benchScale: Boolean = !sys.env.get("REPRO_BENCH_SCALE").contains("small")

  /** A run drops its blocks asynchronously. One still being dropped when
    * the JVM exits logs "not removed normally" and a
    * `RejectedExecutionException` per block, so each suite waits for them.
    */
  override def afterAll(): Unit = try BlockDrain(spark.sparkContext) finally super.afterAll()
}

class Table1Bench extends SparkSpec with BenchScale {
  test("Table 1 — round complexity: AMPC constant vs MPC logarithmic") {
    val t = Tables.table1(spark, benchScale)
    println(Tables.render(t))
    TableChecks.table1(t, benchScale)
  }
}

class Table2Bench extends SparkSpec with BenchScale {
  test("Table 2 — dataset statistics for the real-graph analogs") {
    val t = Tables.table2(spark, benchScale)
    println(Tables.render(t))
    TableChecks.table2(t, benchScale)
  }
}

class Table3Bench extends SparkSpec with BenchScale {
  test("Table 3 — shuffles per implementation per dataset") {
    val t = Tables.table3(spark, benchScale)
    println(Tables.render(t))
    TableChecks.table3(t)
  }
}

class Table4Bench extends SparkSpec with BenchScale {
  test("Table 4 — normalized modeled times: RDMA vs TCP/IP vs MPC") {
    val t = Tables.table4(spark, benchScale)
    println(Tables.render(t))
    TableChecks.table4(t, benchScale)
  }
}

/** The Figure-4-style optimization ablation (caching × multithreading),
  * exercised because §5.3 argues caching is *required* for good AMPC
  * performance — we verify the effect direction and magnitude ordering.
  */
class OptimizationBench extends SparkSpec with BenchScale {
  test("caching reduces KV communication; multithreading reduces modeled time") {
    import repro.ampc.CostModel
    import repro.core.AmpcMis
    val g = repro.graphs.GraphGen.rmat(spark, if (benchScale) 12 else 9, 12, seed = 31).persist()
    val cached = AmpcMis.run(spark, g, seed = 8, caching = true)
    val uncached = AmpcMis.run(spark, g, seed = 8, caching = false)
    val reduction = uncached.metrics.kvReadBytes.toDouble / math.max(1, cached.metrics.kvReadBytes)
    val tCached = CostModel.Rdma.seconds(cached.metrics)
    val tUncached = CostModel.Rdma.seconds(uncached.metrics)
    val tSingle = CostModel.singleThreaded(CostModel.Rdma).seconds(cached.metrics)
    println(f"Optimization ablation (AMPC MIS, RMAT scale ${if (benchScale) 12 else 9}):")
    println(f"  caching KV-bytes reduction: ${reduction}%.2fx (paper: 1.96-12.2x)")
    println(f"  modeled time cached=${tCached}%.4fs uncached=${tUncached}%.4fs single-thread=${tSingle}%.4fs")
    assert(reduction > 1.5)
    assert(tUncached > tCached)
    assert(tSingle > tCached)
    g.unpersist()
  }
}

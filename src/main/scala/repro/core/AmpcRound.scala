package repro.core

import org.apache.spark.sql.Dataset
import repro.ampc.Dht

/** The AMPC round the algorithms of this package share (Fig. 1,
  * §5.4–§5.6): one shuffle builds a row per vertex (each caller's own
  * `groupByKey`/`mapGroups`), [[write]] puts the rows into the DHT, and
  * the next round queries the DHT adaptively from every vertex, where
  * [[resolve]] retries the vertices whose query ran out of budget.
  */
private[core] object AmpcRound {

  /** Persist `rows` and write each one to `dht` at
    * `perEntry * length + 8` bytes, in one Spark action that also counts
    * the rows and sums their lengths. The caller unpersists `rows`.
    *
    * @return (vertices, summed lengths)
    */
  def write[V](rows: Dataset[(Long, V)], dht: Dht[V], perEntry: Int)(length: V => Int): (Long, Long) = {
    val sc = rows.sparkSession.sparkContext
    requireLocal(sc.master)
    rows.persist()
    val vertices = sc.longAccumulator
    val entries = sc.longAccumulator
    rows.foreachPartition { it: Iterator[(Long, V)] =>
      it.foreach { case (v, a) =>
        val len = length(a)
        dht.put(v, a, perEntry * len + 8); vertices.add(1); entries.add(len)
      }
    }
    (vertices.sum, entries.sum)
  }

  /** Run `query(v, row, budget)` from every row, one Spark job per pass.
    * A `None` answer means the query ran out of budget; those rows are
    * retried in a further pass with the budget multiplied by `growth`
    * (the O(1/ε)-step truncation schedule of [19]). Runs on `rows.rdd`,
    * so the answer type needs no Spark encoder.
    *
    * @return every row's answer, and the number of passes
    */
  def resolve[V, R](rows: Dataset[(Long, V)], budget: Long, growth: Long)(
      query: (Long, V, Long) => Option[R]
  ): (Seq[(Long, R)], Int) = {
    require(
      budget >= 1 && growth >= 2,
      s"truncation schedule cannot finish: query budget $budget, budget growth $growth " +
        "(need budget >= 1 and growth >= 2)",
    )
    val answers = scala.collection.mutable.ArrayBuffer.empty[(Long, R)]
    var pending = rows.rdd
    var b = budget
    var passes = 0
    var done = false
    while (!done) {
      passes += 1
      val pass = b
      val out = pending.map { case (v, a) => (v, query(v, a, pass)) }.collect()
      out.foreach { case (v, r) => r.foreach(x => answers += ((v, x))) }
      val unresolved = out.collect { case (v, None) => v }.toSet
      if (unresolved.isEmpty) done = true
      else {
        b = if (b >= Long.MaxValue / growth) Long.MaxValue else b * growth
        pending = pending.filter(p => unresolved(p._1))
      }
    }
    (answers.toSeq, passes)
  }

  /** The DHT is one JVM's memory: under any master but `local` every
    * executor would write and read its own empty store.
    */
  def requireLocal(master: String): Unit =
    require(
      master == "local" || master.startsWith("local["),
      s"AMPC algorithms need a local master (the DHT lives in one JVM), got $master",
    )
}

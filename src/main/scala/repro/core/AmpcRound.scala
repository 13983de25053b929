package repro.core

import org.apache.spark.rdd.RDD
import repro.ampc.Dht
import repro.graphs.CoPartitioned
import scala.reflect.ClassTag

/** The AMPC round the algorithms of this package share (Fig. 1,
  * §5.4–§5.6), in two Spark jobs. The caller builds one row per vertex as
  * a pair RDD on the [[CoPartitioned]] kit's partitioner, and keeps it
  * when the query job reads it again. [[write]] is the first job: it runs
  * the round's one shuffle and puts every row into the DHT. [[resolve]] is
  * the second: it queries the DHT adaptively from every vertex, and
  * retries the vertices whose query ran out of budget. `write` is an
  * action that returns once every row is in the DHT, so no query reads
  * the DHT before the write has finished: the round barrier of [19] holds
  * by construction.
  */
private[core] object AmpcRound {

  /** Write each of `rows` to `dht` at `perEntry * length + 8` bytes, in one
    * Spark action that also counts the rows, sums their lengths and
    * collects what `pick` selects.
    *
    * @return (vertices, summed lengths, picked items)
    */
  def write[V, R: ClassTag](kit: CoPartitioned, rows: RDD[(Long, V)], dht: Dht[V], perEntry: Int)(
      length: V => Int,
      pick: ((Long, V)) => Option[R] = (_: (Long, V)) => None,
  ): (Long, Long, Array[R]) = {
    val written = rows.map { case r @ (v, a) => dht.put(v, a, perEntry * length(a) + 8); r }
    kit.tally(written)(r => length(r._2).toLong, pick)
  }

  /** Each truncation pass multiplies the query budget by this factor. */
  private val BudgetGrowth = 16L

  /** Run `query(v, row, budget)` from every row, one Spark job per pass.
    * A `None` answer means the query ran out of budget; those rows are
    * retried in a further pass with the budget multiplied by
    * [[BudgetGrowth]] (the O(1/ε)-step truncation schedule of [19]).
    *
    * @return every row's answer, and the number of passes
    */
  def resolve[V, R](kit: CoPartitioned, rows: RDD[(Long, V)], budget: Long)(
      query: (Long, V, Long) => Option[R]
  ): (Seq[(Long, R)], Int) = {
    require(budget >= 1, s"truncation schedule cannot finish: query budget $budget (need budget >= 1)")
    val answers = scala.collection.mutable.ArrayBuffer.empty[(Long, R)]
    var pending = rows
    var b = budget
    var passes = 0
    var done = false
    while (!done) {
      passes += 1
      val pass = b
      val out = kit.collect(pending.map { case (v, a) => (v, query(v, a, pass)) })
      out.foreach { case (v, r) => r.foreach(x => answers += ((v, x))) }
      val unresolved = out.collect { case (v, None) => v }.toSet
      if (unresolved.isEmpty) done = true
      else {
        b = if (b >= Long.MaxValue / BudgetGrowth) Long.MaxValue else b * BudgetGrowth
        pending = pending.filter(p => unresolved(p._1))
      }
    }
    (answers.toSeq, passes)
  }
}

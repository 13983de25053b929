package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Priorities

/** Small deterministic random graphs for unit tests, generated on the
  * driver so every suite can cross-check the distributed implementations
  * against the exact references in `repro.ref.Reference`.
  */
object TestGraphs {

  /** Canonical random edge list over vertices [0, n). Deterministic. */
  def randomEdges(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rng = new scala.util.Random(seed)
    Iterator
      .continually((rng.nextInt(n).toLong, rng.nextInt(n).toLong))
      .filter { case (u, v) => u != v }
      .map { case (u, v) => (math.min(u, v), math.max(u, v)) }
      .take(4 * m)
      .toSeq
      .distinct
      .take(m)
  }

  /** Deterministic unique weights in (0, 1) per canonical edge. */
  def withWeights(edges: Seq[(Long, Long)], seed: Long): Seq[(Long, Long, Double)] =
    edges.map { case (u, v) => (u, v, Priorities.toUnit(Priorities.edgeRank(u, v, seed))) }

  def toDf(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  def toWeightedDf(spark: SparkSession, edges: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    edges.toDF("src", "dst", "weight")
  }

  /** `df`'s (src, dst) rows, collected to the driver. */
  def edgesOf(df: DataFrame): Seq[(Long, Long)] =
    df.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  def vertices(edges: Seq[(Long, Long)]): Seq[Long] =
    edges.flatMap(e => Seq(e._1, e._2)).distinct.sorted

  /** Total MSF weight, rounded for robust comparison. */
  def weightKey(es: Seq[(Long, Long, Double)]): (Int, Long) =
    (es.size, math.round(es.map(_._3).sum * 1e9))

  /** A 100-leaf star and a 10-edge path: Δ = 100 is above 10 ln n, so
    * `MatchingPhases`' first phase matches inside a rank prefix below 1.
    */
  val starAndPath: Seq[(Long, Long)] =
    (1L to 100L).map(l => (0L, l)) ++ (101L until 111L).map(i => (i, i + 1))

  /** [[starAndPath]] beside a random graph over [1000, 1200). */
  def starAndPathPlus(seed: Long): Seq[(Long, Long)] =
    starAndPath ++ randomEdges(200, 600, seed).map { case (u, v) => (u + 1000, v + 1000) }

  /** A small connected random graph (spanning path + random extras). */
  def connectedEdges(n: Int, extra: Int, seed: Long): Seq[(Long, Long)] = {
    val path = (0 until n - 1).map(i => (i.toLong, (i + 1).toLong))
    (path ++ randomEdges(n, extra, seed)).distinct
  }
}

package repro.graphs

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Relational graph plumbing shared by every algorithm.
  *
  * Canonical form: undirected simple graph as rows (src, dst) with
  * src < dst. Weighted graphs carry a third column `weight: Double`;
  * weight ties are always broken by (weight, src, dst) so the MSF is
  * unique across implementations.
  */
object GraphOps {

  /** Drop loops, orient src < dst, dedup. Accepts any (src, dst[, …]) input. */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(
        least(col("src"), col("dst")) as "src",
        greatest(col("src"), col("dst")) as "dst",
      )
      .where(col("src") =!= col("dst"))
      .distinct()

  /** Both orientations of a canonical edge list (columns preserved). */
  def symmetrize(edges: DataFrame): DataFrame = {
    val cols = edges.columns
    val flipped = edges.select(
      (col("dst") as "src") +: (col("src") as "dst") +:
        cols.filterNot(c => c == "src" || c == "dst").map(col).toSeq: _*
    )
    edges.select(cols.map(col).toSeq: _*).union(flipped.select(cols.map(col).toSeq: _*))
  }

  /** Distinct vertex ids appearing as an endpoint. */
  def vertices(edges: DataFrame): DataFrame =
    edges
      .select(col("src") as "id")
      .union(edges.select(col("dst") as "id"))
      .distinct()

  /** Per-vertex degree over the canonical edge list. */
  def degrees(edges: DataFrame): DataFrame =
    symmetrize(edges.select("src", "dst"))
      .groupBy(col("src") as "id")
      .agg(count(lit(1)) as "degree")

  /** The paper's MSF weighting (§5.2): w(u,v) = deg(u) + deg(v). */
  def withDegreeWeights(edges: DataFrame): DataFrame = {
    val deg = degrees(edges)
    edges
      .join(deg.withColumnRenamed("id", "src").withColumnRenamed("degree", "ds"), "src")
      .join(deg.withColumnRenamed("id", "dst").withColumnRenamed("degree", "dd"), "dst")
      .select(col("src"), col("dst"), (col("ds") + col("dd")).cast("double") as "weight")
  }

  /** Rough serialized size of one (src, dst) row — used for shuffle-byte
    * accounting (two 8-byte ids, matching the paper's NodeId pairs).
    */
  val EdgeBytes: Long = 16L

  /** Rough serialized size of one weighted edge row. */
  val WeightedEdgeBytes: Long = 24L

  /** Collect a small edge list to the driver as (src, dst, weight) tuples. */
  def collectWeighted(edges: DataFrame): Seq[(Long, Long, Double)] =
    edges
      .select("src", "dst", "weight")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
      .toSeq

  /** Collect a small edge list to the driver as (src, dst) pairs. */
  def collectEdges(edges: DataFrame): Seq[(Long, Long)] =
    edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
}

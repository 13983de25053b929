package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ampc.RunMetrics
import repro.core._
import repro.graphs.{GraphGen, GraphOps}
import repro.mpc.LocalContractionCC
import repro.ref.Reference

/** What a timed call hands back: the program's own counters, its phase
  * count (MPC calls), and the output check, run after the clock stops.
  */
final case class Done(metrics: RunMetrics, phases: Int, check: () => Boolean)

/** One public `run` function of `repro.core` or `repro.mpc` on the
  * workload's input.
  */
final case class Call(name: String, run: () => Done)

/** A generated input, held both in Spark and on the driver. The Spark
  * side is locally checkpointed, so clearing the SQL cache between calls
  * leaves it in place.
  */
final case class Graph(
    edges: DataFrame,
    weighted: DataFrame,
    pairs: Seq[(Long, Long)],
    triples: Seq[(Long, Long, Double)],
) {
  lazy val vertices: Seq[Long] = pairs.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
}

/** A workload: how to generate its input from the seed, and which calls
  * one pass makes, each with its reference answer computed up front.
  */
final case class Workload(name: String, input: (SparkSession, Long) => Graph, calls: (SparkSession, Graph, Long) => Seq[Call])

object Workloads {

  /** Every call any workload makes, in report order, and whether it is an AMPC call. */
  val allCalls: Seq[(String, Boolean)] = Seq(
    "ampc_mis" -> true, "ampc_mm" -> true, "ampc_mm_nocache" -> true, "ampc_msf" -> true,
    "ampc_2cycle" -> true, "mpc_cc" -> false,
  )

  // Input sizes. A web-shaped R-MAT (ClueWeb-like skew) and the paper's
  // 2×k cycle family, scaled so one pass takes a few seconds on 4 cores.
  val WebScale = 11
  val EdgeFactor = 16
  // LocalContractionCC about halves a cycle per round and stops at 256
  // edges. At k = 512 the second round leaves about 256 edges, so about
  // half the seeds took a third round of 13 more Spark jobs. k = 724 sits
  // halfway (in log scale) between two round boundaries: 3 rounds for
  // every one of 3,000 simulated seeds.
  val CycleK = 724L
  // At 1,448 vertices, sampling 1/64 leaves one cycle without a sample for about
  // one seed in 45,000 (the answer is then a lower bound, `exact = false`);
  // 1/32 makes that about one in five billion.
  val TwoCycleSampleInv = 32

  val all: Seq[Workload] = Seq(
    Workload("ampc-web", webGraph, ampcWeb),
    Workload("two-cycles", (s, _) => graphOf(GraphGen.twoCycles(s, CycleK)), twoCycles),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  def webGraph(spark: SparkSession, seed: Long): Graph =
    graphOf(GraphGen.rmat(spark, WebScale, EdgeFactor, seed, a = 0.67, b = 0.16, c = 0.16))

  private def graphOf(raw: DataFrame): Graph = {
    val edges = raw.localCheckpoint()
    val weighted = GraphOps.withDegreeWeights(edges).localCheckpoint()
    Graph(edges, weighted, GraphOps.collectEdges(edges), GraphOps.collectWeighted(weighted))
  }

  private def canonical(es: Seq[(Long, Long, Double)]): Set[(Long, Long, Double)] =
    es.map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }.toSet

  /** Exact MSF check: same edge set, and no edge reported twice. */
  private def sameForest(got: Seq[(Long, Long, Double)], want: Set[(Long, Long, Double)]): Boolean =
    got.size == want.size && canonical(got) == want

  /** Partition of the vertices, labelled by the minimum id in each part. */
  private def minLabels(pairs: Iterable[(Long, Long)]): Map[Long, Long] =
    pairs.groupBy(_._2).values.flatMap { part =>
      val low = part.map(_._1).min
      part.map { case (v, _) => v -> low }
    }.toMap

  private def labelsOf(df: DataFrame): Map[Long, Long] =
    minLabels(df.select("id", "component").collect().map(r => (r.getLong(0), r.getLong(1))))

  private def ampcWeb(spark: SparkSession, g: Graph, seed: Long): Seq[Call] = {
    val refMis = Reference.lfMis(g.vertices, g.pairs, Priorities.vertexRank(_, seed))
    val refMm = Reference.lfMatching(g.pairs, Priorities.edgeRank(_, _, seed))
    val refMsf = canonical(Reference.kruskal(g.triples))
    Seq(
      Call("ampc_mis", () => {
        val r = AmpcMis.run(spark, g.edges, seed)
        Done(r.metrics, 0, () => r.mis == refMis)
      }),
      Call("ampc_mm", () => {
        val r = AmpcMatching.run(spark, g.edges, seed)
        Done(r.metrics, 0, () => r.matching == refMm)
      }),
      Call("ampc_mm_nocache", () => {
        val r = AmpcMatching.run(spark, g.edges, seed, caching = false)
        Done(r.metrics, 0, () => r.matching == refMm)
      }),
      Call("ampc_msf", () => {
        val r = AmpcMsf.run(spark, g.weighted, seed)
        Done(r.metrics, 0, () => sameForest(r.msf, refMsf))
      }),
    )
  }

  /** The in-memory cutoff the evaluation tables use: at most 1/64 of the input, at least 256. */
  def mpcCutoff(m: Long): Long = math.max(256L, m / 64)

  private def twoCycles(spark: SparkSession, g: Graph, seed: Long): Seq[Call] = {
    val ref = minLabels(Reference.connectedComponents(g.vertices, g.pairs))
    val thr = mpcCutoff(g.vertices.size.toLong)
    Seq(
      Call("ampc_2cycle", () => {
        val r = AmpcTwoCycle.run(spark, g.edges, seed, sampleInv = TwoCycleSampleInv)
        Done(r.metrics, 0, () => r.numCycles == 2 && r.exact)
      }),
      Call("mpc_cc", () => {
        val r = LocalContractionCC.run(spark, g.edges, seed, localThreshold = thr)
        Done(r.metrics, r.rounds, () => r.numComponents == 2 && labelsOf(r.labels) == ref)
      }),
    )
  }
}

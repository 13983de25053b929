package repro.mpc

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.core.Priorities
import repro.graphs.{GraphGen, GraphOps}
import repro.ref.Reference

class MpcMisSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"rootset MIS equals the sequential LF MIS (seed $seed)") {
      val edges = TestGraphs.randomEdges(35, 70, seed)
      val res = MpcMis.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, localThreshold = 8)
      val expected = Reference.lfMis(TestGraphs.vertices(edges), edges, Priorities.vertexRank(_, seed.toLong))
      assert(res.mis == expected)
    }

  test("in-memory switch produces identical results to pure phases") {
    val edges = TestGraphs.randomEdges(30, 60, 9)
    val df = TestGraphs.toDf(spark, edges)
    val early = MpcMis.run(spark, df, 9, localThreshold = 1_000_000) // immediate switch
    val late = MpcMis.run(spark, df, 9, localThreshold = 0) // never switch
    assert(early.mis == late.mis)
    assert(early.phases == 0 && late.phases > 0)
  }

  test("two shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.randomEdges(40, 100, 10)
    val res = MpcMis.run(spark, TestGraphs.toDf(spark, edges), 10, localThreshold = 0)
    assert(res.metrics.shuffles == 2L * res.phases)
  }

  test("running out of phases throws instead of returning a partial MIS") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 100, 10))
    assert(MpcMis.run(spark, df, 10, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMis.run(spark, df, 10, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }

  test("phases grow with graph size (the Θ(log n) behavior)") {
    val small = MpcMis.run(spark, TestGraphs.toDf(spark, TestGraphs.randomEdges(16, 24, 2)), 2, localThreshold = 0)
    val large = MpcMis.run(spark, TestGraphs.toDf(spark, TestGraphs.randomEdges(256, 1024, 2)), 2, localThreshold = 0)
    assert(large.phases >= small.phases)
  }
}

class MpcMatchingSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"rootset matching equals the sequential LF matching (seed $seed)") {
      val edges = TestGraphs.randomEdges(35, 70, seed)
      val res = MpcMatching.run(spark, TestGraphs.toDf(spark, edges), seed.toLong, localThreshold = 8)
      val expected = Reference.lfMatching(edges, Priorities.edgeRank(_, _, seed.toLong))
      assert(res.matching == expected)
    }

  test("in-memory switch is transparent") {
    val edges = TestGraphs.randomEdges(30, 60, 9)
    val df = TestGraphs.toDf(spark, edges)
    val early = MpcMatching.run(spark, df, 9, localThreshold = 1_000_000)
    val late = MpcMatching.run(spark, df, 9, localThreshold = 0)
    assert(early.matching == late.matching)
  }

  test("two shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.randomEdges(40, 100, 10)
    val res = MpcMatching.run(spark, TestGraphs.toDf(spark, edges), 10, localThreshold = 0)
    assert(res.metrics.shuffles == 2L * res.phases)
  }

  test("running out of phases throws instead of returning a partial matching") {
    val df = TestGraphs.toDf(spark, TestGraphs.randomEdges(40, 100, 10))
    assert(MpcMatching.run(spark, df, 10, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMatching.run(spark, df, 10, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }
}

class MpcMsfSpec extends SparkSpec {

  for (seed <- 1 to 8)
    test(s"Boruvka equals Kruskal (seed $seed)") {
      val edges = TestGraphs.withWeights(TestGraphs.randomEdges(30, 70, seed), seed)
      val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), seed.toLong, localThreshold = 4)
      val expected = Reference
        .kruskal(edges)
        .map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }
      assert(res.msf.toSet == expected.toSet)
    }

  test("three shuffles per phase (Table 3 accounting)") {
    val edges = TestGraphs.withWeights(TestGraphs.randomEdges(40, 100, 9), 9)
    val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, edges), 9, localThreshold = 4)
    assert(res.metrics.shuffles == 3L * res.phases)
  }

  test("running out of phases throws instead of returning a partial forest") {
    val df = TestGraphs.toWeightedDf(spark, TestGraphs.withWeights(TestGraphs.randomEdges(40, 100, 9), 9))
    assert(MpcMsf.run(spark, df, 9, localThreshold = 0).phases > 1)
    val e = intercept[IllegalArgumentException](MpcMsf.run(spark, df, 9, localThreshold = 0, maxPhases = 1))
    assert(e.getMessage.contains("no local finish within 1 phases"))
  }

  test("degree-weighted MSF matches the reference") {
    val base = TestGraphs.toDf(spark, TestGraphs.randomEdges(25, 50, 3))
    val weighted = GraphOps.withDegreeWeights(base)
    val res = MpcMsf.run(spark, weighted, 3, localThreshold = 4)
    val expected = Reference.kruskal(GraphOps.collectWeighted(weighted))
    assert(TestGraphs.weightKey(res.msf) == TestGraphs.weightKey(expected))
  }

  test("disconnected graphs produce one forest per component") {
    val c1 = TestGraphs.withWeights(TestGraphs.connectedEdges(12, 6, 1), 1)
    val c2 = TestGraphs.withWeights(
      TestGraphs.connectedEdges(10, 5, 2).map { case (u, v) => (u + 100, v + 100) }, 2)
    val res = MpcMsf.run(spark, TestGraphs.toWeightedDf(spark, c1 ++ c2), 4, localThreshold = 4)
    assert(res.msf.size == (12 - 1) + (10 - 1))
  }
}

class LocalContractionCCSpec extends SparkSpec {

  private def labelMap(res: LocalContractionCC.Result): Map[Long, Long] =
    res.labels.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  /** A run on `edges` whose labels give union-find's partition and count. */
  private def runMatchingUnionFind(edges: Seq[(Long, Long)], seed: Long, threshold: Long): LocalContractionCC.Result = {
    val res = LocalContractionCC.run(spark, TestGraphs.toDf(spark, edges), seed, localThreshold = threshold)
    val expected = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
    assert(labelMap(res).groupBy(_._2).values.map(_.keySet).toSet ==
      expected.groupBy(_._2).values.map(_.keys.toSet).toSet)
    assert(res.numComponents == expected.values.toSet.size)
    res
  }

  for (seed <- 1 to 8)
    test(s"labels equal union-find components (seed $seed)") {
      runMatchingUnionFind(TestGraphs.randomEdges(35, 50, seed), seed, 4)
    }

  test("distinguishes one cycle from two") {
    val one = LocalContractionCC.run(spark, GraphGen.cycle(spark, 400), 1, localThreshold = 8)
    val two = LocalContractionCC.run(spark, GraphGen.twoCycles(spark, 200), 1, localThreshold = 8)
    assert(one.numComponents == 1)
    assert(two.numComponents == 2)
  }

  test("three shuffles per round (the §5.6 accounting)") {
    val res = LocalContractionCC.run(spark, GraphGen.cycle(spark, 300), 2, localThreshold = 8)
    assert(res.metrics.shuffles == 3L * res.rounds)
  }

  test("running out of rounds throws instead of returning partial labels") {
    val g = GraphGen.cycle(spark, 300)
    assert(LocalContractionCC.run(spark, g, 1, localThreshold = 0).rounds > 1)
    val e = intercept[IllegalArgumentException](LocalContractionCC.run(spark, g, 1, localThreshold = 0, maxRounds = 1))
    assert(e.getMessage.contains("no local finish within 1 rounds"))
  }

  // Releasing a locally checkpointed round table through `RDD.unpersist`
  // logs one WARN per table; a run should log none.
  test("a run logs no warning about unpersisting a locally checkpointed RDD") {
    import org.apache.logging.log4j.{Level, LogManager}
    import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
    import org.apache.logging.log4j.core.appender.AbstractAppender
    import org.apache.logging.log4j.core.config.Property
    val seen = new java.util.concurrent.atomic.AtomicInteger
    val appender = new AbstractAppender("checkpoint-unpersist-warnings", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit =
        if (e.getMessage.getFormattedMessage.contains("was locally checkpointed")) seen.incrementAndGet()
    }
    appender.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val root = ctx.getConfiguration.getRootLogger
    root.addAppender(appender, Level.WARN, null); ctx.updateLoggers()
    val res =
      try LocalContractionCC.run(spark, GraphGen.cycle(spark, 300), 2, localThreshold = 8)
      finally { root.removeAppender(appender.getName); ctx.updateLoggers(); appender.stop() }
    assert(res.rounds > 1)
    assert(seen.get == 0, s"${seen.get} warnings")
  }

  /** Checksum of the (id, component) labels in sorted order, so independent of collect order. */
  private def checksum(labels: Seq[(Long, Long)]): Long =
    labels.sorted.foldLeft(0L) { case (h, (v, c)) =>
      Priorities.splitmix64(h ^ Priorities.splitmix64(v ^ Priorities.splitmix64(c)))
    }

  /** Outputs recorded on the radius-2 rule, whose trajectories and labels
    * the `RadiusTwoContraction` cases below check on the driver; any
    * change to the contraction shows here.
    */
  private def pinned(name: String, input: => DataFrame, seed: Long, threshold: Long)(
      trajectory: Seq[Long], components: Long, shuffleBytes: Long, labelCount: Long, labelSum: Long): Unit =
    test(s"outputs are pinned: $name") {
      val res = LocalContractionCC.run(spark, input, seed, localThreshold = threshold)
      assert(res.edgeTrajectory == trajectory)
      assert(res.rounds == trajectory.size - 1)
      assert(res.numComponents == components)
      assert(res.metrics.shuffles == 3L * res.rounds && res.metrics.shuffleBytes == shuffleBytes)
      val labels = res.labels.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      assert(labels.size == labelCount && checksum(labels) == labelSum)
    }

  pinned("two 724-cycles, seed 7", GraphGen.twoCycles(spark, 724), 7, 256)(
    Seq(1448, 482, 165), 2, 154400, 1448, -7722195432871051378L)
  pinned("two 724-cycles, seed 601", GraphGen.twoCycles(spark, 724), 601, 256)(
    Seq(1448, 474, 158), 2, 153760, 1448, 6123107382183407752L)
  pinned("a 3000-cycle", GraphGen.cycle(spark, 3000), 3, 16)(
    Seq(3000, 1022, 341, 108, 38, 13), 1, 360720, 3000, -1354150283666754810L)
  pinned("web-skewed R-MAT", GraphGen.rmat(spark, 9, 4, 5, a = 0.67, b = 0.16, c = 0.16), 5, 8)(
    Seq(1057, 24, 0), 2, 86480, 270, 3646779800045841014L)
  pinned("R-MAT contracted to nothing", GraphGen.rmat(spark, 9, 4, 6), 6, 0)(
    Seq(1561, 88, 6, 0), 2, 132400, 368, 8611016587702131782L)
  pinned("duplicated rows", {
    val e = TestGraphs.randomEdges(300, 400, 1)
    TestGraphs.toDf(spark, e ++ e.take(50))
  }, 1, 8)(Seq(400, 164, 13, 2), 4, 46160, 278, -5033636348091995848L)
  pinned("already below the threshold", TestGraphs.toDf(spark, TestGraphs.randomEdges(30, 40, 2)), 2, 256)(
    Seq(40), 1, 0, 30, -3098037593645465250L)
  pinned("the empty graph", TestGraphs.toDf(spark, Seq.empty), 1, 8)(Seq(0), 0, 0, 0, 0L)

  /** `run` gives the trajectory and the labels of the driver-side rule. */
  private def matchesDriverSide(name: String, input: => DataFrame, seed: Long, threshold: Long): Unit =
    test(s"trajectory and labels equal the driver-side radius-2 rule: $name") {
      val df = input
      val res = LocalContractionCC.run(spark, df, seed, localThreshold = threshold)
      val expected = RadiusTwoContraction.run(TestGraphs.edgesOf(df), seed, threshold)
      assert(res.edgeTrajectory == expected.trajectory)
      assert(labelMap(res) == expected.labels)
    }

  for (seed <- 1 to 3)
    matchesDriverSide(s"random graph, seed $seed", TestGraphs.toDf(spark, TestGraphs.randomEdges(400, 600, seed)), seed, 4)
  matchesDriverSide("a 2000-cycle", GraphGen.cycle(spark, 2000), 11, 0)
  matchesDriverSide("two 724-cycles, seed 12", GraphGen.twoCycles(spark, 724), 12, 16)
  matchesDriverSide("R-MAT", GraphGen.rmat(spark, 10, 4, 13), 13, 0)

  // Loops, an edge given both ways and a repeated row: the first entry of
  // the trajectory counts distinct undirected edges, a loop as one, and
  // a vertex whose only edge is a loop is a component of its own.
  test("labels equal union-find on loops, reversed and repeated rows") {
    val edges = TestGraphs.randomEdges(60, 70, 14) ++
      Seq((3L, 3L), (5L, 3L), (3L, 5L), (7L, 8L), (7L, 8L), (100L, 100L), (101L, 102L), (102L, 102L))
    val distinct = edges.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.distinct
    for (threshold <- Seq(0L, 4L, 1000L))
      assert(runMatchingUnionFind(edges, 14, threshold).edgeTrajectory.head == distinct.size)
  }

  test("each round shrinks a cycle by roughly 3x (2.59-3x in the paper)") {
    val res = LocalContractionCC.run(spark, GraphGen.cycle(spark, 3000), 3, localThreshold = 16)
    val shrinks = res.edgeTrajectory.sliding(2).collect {
      case Seq(a, b) if b > 16 => a.toDouble / b
    }.toSeq
    assert(shrinks.nonEmpty)
    val avg = shrinks.sum / shrinks.size
    assert(avg > 2.5 && avg < 3.5, s"avg shrink $avg")
  }

  test("round count grows logarithmically") {
    val small = LocalContractionCC.run(spark, GraphGen.cycle(spark, 100), 4, localThreshold = 4)
    val large = LocalContractionCC.run(spark, GraphGen.cycle(spark, 3000), 4, localThreshold = 4)
    assert(large.rounds > small.rounds)
    assert(large.rounds <= 20)
  }
}

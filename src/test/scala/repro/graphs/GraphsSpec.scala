package repro.graphs

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.ref.Reference

class GraphGenSpec extends SparkSpec {
  import spark.implicits._

  test("rmat is deterministic in (params, seed)") {
    val a = GraphGen.rmat(spark, 8, 4, seed = 1).collect().toSet
    val b = GraphGen.rmat(spark, 8, 4, seed = 1).collect().toSet
    assert(a == b)
    val c = GraphGen.rmat(spark, 8, 4, seed = 2).collect().toSet
    assert(a != c)
  }

  test("rmat is canonical: src < dst, no duplicates") {
    val df = GraphGen.rmat(spark, 8, 4, seed = 3)
    assert(df.where($"src" >= $"dst").count() == 0)
    assert(df.count() == df.distinct().count())
  }

  test("rmat ids stay within [0, 2^scale)") {
    val df = GraphGen.rmat(spark, 7, 4, seed = 4)
    val mx = df.agg(greatest(max("src"), max("dst"))).collect()(0).getLong(0)
    assert(mx < (1L << 7))
    val mn = df.agg(least(min("src"), min("dst"))).collect()(0).getLong(0)
    assert(mn >= 0)
  }

  test("rmat is skewed: top-degree vertex well above the average") {
    val df = GraphGen.rmat(spark, 10, 8, seed = 5)
    val degs = GraphOps.degrees(df)
    val maxDeg = degs.agg(max("degree")).collect()(0).getLong(0)
    val avgDeg = degs.agg(avg("degree")).collect()(0).getDouble(0)
    assert(maxDeg > 5 * avgDeg, s"max $maxDeg vs avg $avgDeg")
  }

  test("uniform has low skew relative to rmat") {
    val u = GraphOps.degrees(GraphGen.uniform(spark, 1024, 8192, seed = 6))
    val maxDeg = u.agg(max("degree")).collect()(0).getLong(0)
    val avgDeg = u.agg(avg("degree")).collect()(0).getDouble(0)
    assert(maxDeg < 5 * avgDeg, s"max $maxDeg vs avg $avgDeg")
  }

  for (k <- Seq(3L, 10L, 101L))
    test(s"cycle($k) has k edges and every degree 2") {
      val df = GraphGen.cycle(spark, k)
      assert(df.count() == k)
      val degs = GraphOps.degrees(df).select("degree").distinct().collect().map(_.getLong(0))
      assert(degs.toSeq == Seq(2L))
    }

  test("twoCycles has disjoint id ranges and 2 components") {
    val df = GraphGen.twoCycles(spark, 50)
    assert(df.count() == 100)
    val edges = GraphOps.collectEdges(df)
    val labels = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
    assert(labels.values.toSet.size == 2)
  }

  test("path has k-1 edges and diameter k-1") {
    val df = GraphGen.path(spark, 10)
    val edges = GraphOps.collectEdges(df)
    assert(edges.size == 9)
    assert(Reference.exactDiameter(TestGraphs.vertices(edges), edges) == 9)
  }

  test("star center has degree = leaves") {
    val df = GraphGen.star(spark, 17)
    val degs = GraphOps.degrees(df)
    assert(degs.where($"id" === 0).collect()(0).getLong(1) == 17)
  }

  test("binaryTree is a tree (n-1 edges, connected)") {
    val df = GraphGen.binaryTree(spark, 31)
    val edges = GraphOps.collectEdges(df)
    assert(edges.size == 30)
    val labels = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
    assert(labels.values.toSet.size == 1)
  }

  test("clutter makes `count` disjoint paths of `size` vertices") {
    val df = GraphGen.clutter(spark, count = 7, size = 4, offset = 1000)
    val edges = GraphOps.collectEdges(df)
    assert(edges.size == 7 * 3)
    val labels = Reference.connectedComponents(TestGraphs.vertices(edges), edges)
    assert(labels.values.toSet.size == 7)
    assert(edges.forall(e => e._1 >= 1000 && e._2 >= 1000))
  }
}

class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  for (seed <- 1 to 5)
    test(s"canonicalize matches DuckDB (seed $seed)") {
      val raw = TestGraphs.randomEdges(20, 40, seed).flatMap { case (u, v) =>
        Seq((u, v), (v, u), (u, u)) // duplicates, flips, loops
      }
      val df = raw.toDF("src", "dst")
      Oracle.assertEquivalent(
        GraphOps.canonicalize(df).select($"src".cast("long") as "src", $"dst".cast("long") as "dst"),
        """SELECT DISTINCT CAST(LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS BIGINT) AS src,
          |                CAST(GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS BIGINT) AS dst
          |FROM raw WHERE src <> dst""".stripMargin,
        "raw" -> df,
      )
    }

  for (seed <- 1 to 5)
    test(s"degrees match DuckDB (seed $seed)") {
      val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(15, 30, seed))
      Oracle.assertEquivalent(
        GraphOps.degrees(edges),
        """SELECT CAST(id AS BIGINT) AS id, COUNT(*) AS degree FROM (
          |  SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges
          |) GROUP BY id""".stripMargin,
        "edges" -> edges,
      )
    }

  test("symmetrize doubles the rows and preserves columns") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(10, 15, 1))
    val sym = GraphOps.symmetrize(edges)
    assert(sym.count() == 2 * edges.count())
    assert(sym.columns.toSeq == Seq("src", "dst"))
  }

  test("vertices are the distinct endpoints (DuckDB)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(12, 20, 2))
    Oracle.assertEquivalent(
      GraphOps.vertices(edges).select($"id".cast("long") as "id"),
      "SELECT DISTINCT CAST(src AS BIGINT) AS id FROM edges UNION SELECT DISTINCT CAST(dst AS BIGINT) FROM edges",
      "edges" -> edges,
    )
  }

  test("withDegreeWeights: w(u,v) = deg(u)+deg(v) (DuckDB)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(12, 20, 3))
    Oracle.assertEquivalent(
      GraphOps.withDegreeWeights(edges).select($"src", $"dst", $"weight"),
      """WITH deg AS (
        |  SELECT id, COUNT(*) AS d FROM (
        |    SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges
        |  ) GROUP BY id
        |)
        |SELECT CAST(e.src AS BIGINT) AS src, CAST(e.dst AS BIGINT) AS dst,
        |       CAST(du.d + dv.d AS DOUBLE) AS weight
        |FROM edges e
        |JOIN deg du ON du.id = e.src
        |JOIN deg dv ON dv.id = e.dst""".stripMargin,
      "edges" -> edges,
    )
  }
}

class GraphStatsSpec extends SparkSpec {

  test("componentStats counts components and the largest") {
    import spark.implicits._
    val labels = Seq((1L, 1L), (2L, 1L), (3L, 3L), (4L, 3L), (5L, 3L)).toDF("id", "component")
    val (num, largest) = GraphStats.componentStats(labels)
    assert(num == 2 && largest == 3)
  }

  test("stats on a cycle with analytic diameter") {
    val edges = GraphGen.cycle(spark, 12)
    val collected = GraphOps.collectEdges(edges)
    val labels = {
      import spark.implicits._
      val l = Reference.connectedComponents(TestGraphs.vertices(collected), collected)
      l.toSeq.toDF("id", "component")
    }
    val st = GraphStats.stats(edges, labels)
    assert(st.n == 12 && st.m == 12 && st.diameter == 6 && st.numComponents == 1 && st.largestComponent == 12)
  }
}

package repro.metrics

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.GraphOps
import repro.partition._
import repro.partition.edge.RandomEdge
import repro.partition.vertex.RandomVertex

class PartitionMetricsSpec extends SparkSpec {

  private def edgeDf(k: Int) = {
    val (_, cg) = TestGraphs.smallPowerLaw(spark)
    PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, k, 3).part)
  }

  test("edge quality perPart matches DuckDB oracle, one part empty") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    // three parts used out of four: part 3 is empty
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 3, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 4)
    Oracle.assertEquivalent(
      spark.createDataFrame(q.perPart),
      """WITH cov AS (SELECT DISTINCT part, vid FROM (
        |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep)),
        |copies AS (SELECT vid, COUNT(*) AS c FROM cov GROUP BY vid),
        |e AS (SELECT part, COUNT(*) AS edges FROM ep GROUP BY part),
        |v AS (SELECT cov.part AS part, COUNT(*) AS verts, COUNT(*) FILTER (WHERE copies.c >= 2) AS syncVerts
        |      FROM cov JOIN copies ON cov.vid = copies.vid GROUP BY cov.part)
        |SELECT r.range AS part, COALESCE(e.edges, 0) AS edges, COALESCE(v.verts, 0) AS verts,
        |       COALESCE(v.syncVerts, 0) AS syncVerts
        |FROM range(4) r
        |LEFT JOIN e ON CAST(e.part AS BIGINT) = r.range
        |LEFT JOIN v ON CAST(v.part AS BIGINT) = r.range""".stripMargin,
      "ep" -> df,
    )
  }

  test("covers matches the DuckDB oracle") {
    // the per-part vertex count is the number of distinct vertices each part's edges cover
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 4, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 4)
    Oracle.assertEquivalent(
      spark.createDataFrame(q.perPart).select("part", "verts"),
      """SELECT part, COUNT(*) AS verts FROM (SELECT DISTINCT part, vid FROM (
        |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep))
        |GROUP BY part""".stripMargin,
      "ep" -> df,
    )
  }

  test("per-partition edge counts match the DuckDB oracle") {
    val df = edgeDf(4)
    Oracle.assertEquivalent(
      df.groupBy("part").agg(count(lit(1)) as "edges"),
      "SELECT part, COUNT(*) AS edges FROM ep GROUP BY part",
      "ep" -> df,
    )
  }

  test("replication factor equals oracle sum(|V(p)|)/|V|") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 4, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 4)
    // oracle: compute RF in DuckDB through a one-row comparison
    val rfDf = spark.createDataFrame(Seq(Tuple1(q.replicationFactor))).toDF("rf")
    Oracle.assertEquivalent(
      rfDf.select(round(col("rf") * 10000).cast("long") as "rf"),
      s"""SELECT CAST(ROUND(10000.0 * COUNT(*) / ${g.numVertices}) AS BIGINT) AS rf
         |FROM (SELECT DISTINCT part, vid FROM (
         |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep))""".stripMargin,
      "ep" -> df,
    )
  }

  test("edge balance >= 1 and vertex balance >= 1") {
    val (g, cg) = TestGraphs.smallWeb(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 8, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 8)
    assert(q.edgeBalance >= 1.0 && q.vertexBalance >= 1.0)
  }

  test("edge quality per-part loads cover all k partitions and sum to |E|") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 8, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 8)
    assert(q.perPart.size === 8)
    assert(q.perPart.map(_.edges).sum === g.numEdges)
  }

  test("replication factor of a single partition is ~coverage/|V| <= 1") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, Array.fill(cg.numEdges)(0))
    val q = PartitionMetrics.edgeCutQuality(g, df, 1)
    assert(q.replicationFactor <= 1.0 + 1e-9)
    assert(q.perPart.head.syncVerts === 0) // nothing replicated
  }

  test("syncVerts counts only vertices with >= 2 copies (oracle)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val df = PartitionBridge.edgeDf(spark, cg, RandomEdge.partition(cg, 4, 3).part)
    val q = PartitionMetrics.edgeCutQuality(g, df, 4)
    Oracle.assertEquivalent(
      spark.createDataFrame(q.perPart).select("part", "syncVerts"),
      """WITH cov AS (SELECT DISTINCT part, vid FROM (
        |  SELECT part, src AS vid FROM ep UNION ALL SELECT part, dst AS vid FROM ep)),
        |r AS (SELECT vid, COUNT(*) AS c FROM cov GROUP BY vid)
        |SELECT cov.part AS part, COUNT(*) AS syncVerts
        |FROM cov JOIN r ON cov.vid = r.vid WHERE r.c >= 2 GROUP BY cov.part""".stripMargin,
      "ep" -> df,
    )
  }

  test("vertex quality perPart matches DuckDB oracle, one part empty") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    // three parts used out of four: part 3 is empty
    val assign = RandomVertex.partition(cg, 3, new Array[Boolean](cg.numVertices), 3).part
    val q = PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 4)
    val mask = GraphOps.trainMask(g, spark)
    val vp = spark.createDataFrame(assign.indices.map(v => (v.toLong, assign(v), mask(v))))
      .toDF("vid", "part", "train")
    Oracle.assertEquivalent(
      spark.createDataFrame(q.perPart),
      """WITH v AS (SELECT part, COUNT(*) AS verts, COUNT(*) FILTER (WHERE train = 'true') AS trainVerts
        |           FROM vp GROUP BY part),
        |l AS (SELECT a.part AS part, COUNT(*) AS localEdges FROM edges e
        |      JOIN vp a ON e.src = a.vid JOIN vp b ON e.dst = b.vid
        |      WHERE a.part = b.part GROUP BY a.part)
        |SELECT r.range AS part, COALESCE(v.verts, 0) AS verts, COALESCE(v.trainVerts, 0) AS trainVerts,
        |       COALESCE(l.localEdges, 0) AS localEdges
        |FROM range(4) r
        |LEFT JOIN v ON CAST(v.part AS BIGINT) = r.range
        |LEFT JOIN l ON CAST(l.part AS BIGINT) = r.range""".stripMargin,
      "edges" -> g.edges,
      "vp" -> vp,
    )
  }

  test("edge-cut ratio matches the DuckDB oracle") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    val vdf = PartitionBridge.vertexDf(spark, assign)
    val q = PartitionMetrics.vertexCutQuality(g, spark, vdf, 4)
    val cutDf = spark.createDataFrame(Seq(Tuple1(math.round(q.edgeCutRatio * g.numEdges)))).toDF("cut")
    Oracle.assertEquivalent(
      cutDf,
      """SELECT COUNT(*) AS cut FROM edges e
        |JOIN vp a ON e.src = a.vid JOIN vp b ON e.dst = b.vid
        |WHERE a.part <> b.part""".stripMargin,
      "edges" -> g.edges,
      "vp" -> vdf,
    )
  }

  test("vertex-cut quality: per-part vertex counts sum to |V|") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val assign = RandomVertex.partition(cg, 8, new Array[Boolean](cg.numVertices), 3).part
    val q = PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 8)
    assert(q.perPart.map(_.verts).sum === g.numVertices)
  }

  test("single-partition vertex assignment has zero edge cut") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val q = PartitionMetrics.vertexCutQuality(
      g, spark, PartitionBridge.vertexDf(spark, new Array[Int](cg.numVertices)), 1)
    assert(q.edgeCutRatio === 0.0)
  }

  test("balance helper: max/mean") {
    assert(PartitionMetrics.balance(Seq(10L, 10L, 10L)) === 1.0)
    assert(PartitionMetrics.balance(Seq(20L, 10L, 0L)) === 2.0)
    assert(PartitionMetrics.balance(Seq.empty) === 1.0)
    assert(PartitionMetrics.balance(Seq(0L, 0L)) === 1.0)
  }

  test("train vertex balance reflects the split") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val assign = RandomVertex.partition(cg, 4, new Array[Boolean](cg.numVertices), 3).part
    val q = PartitionMetrics.vertexCutQuality(g, spark, PartitionBridge.vertexDf(spark, assign), 4)
    assert(q.trainVertexBalance >= 1.0)
    assert(q.perPart.map(_.trainVerts).sum > 0)
  }
}

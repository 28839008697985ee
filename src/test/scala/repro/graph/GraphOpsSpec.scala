package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

class GraphOpsSpec extends SparkSpec {

  test("degrees match the DuckDB oracle") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val got = GraphOps.degrees(g, spark)
    Oracle.assertEquivalent(
      got,
      """SELECT v.vid AS vid, COALESCE(d.degree, 0) AS degree
        |FROM vertices v LEFT JOIN (
        |  SELECT vid, COUNT(*) AS degree FROM (
        |    SELECT src AS vid FROM edges UNION ALL SELECT dst AS vid FROM edges
        |  ) GROUP BY vid
        |) d ON v.vid = d.vid""".stripMargin,
      "edges" -> g.edges,
      "vertices" -> g.vertices(spark),
    )
  }

  test("degrees agree with CompactGraph degrees") {
    val (g, cg) = TestGraphs.smallGrid(spark)
    val got = GraphOps.degrees(g, spark).collect().map(r => r.getLong(0).toInt -> r.getLong(1)).toMap
    cg.degree.zipWithIndex.foreach { case (d, v) => assert(got(v) === d.toLong, s"vertex $v") }
  }

  test("adjacency of an undirected graph has 2|E| rows") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(GraphOps.adjacency(g).count() === 2 * g.numEdges)
  }

  test("adjacency of a directed graph has |E| rows (in-neighbors)") {
    val (g, _) = TestGraphs.smallWeb(spark)
    assert(GraphOps.adjacency(g).count() === g.numEdges)
  }

  test("adjacency of a directed graph matches the oracle") {
    val (g, _) = TestGraphs.smallWeb(spark)
    Oracle.assertEquivalent(
      GraphOps.adjacency(g),
      "SELECT dst AS v, src AS nbr FROM edges",
      "edges" -> g.edges,
    )
  }

  test("split covers every vertex exactly once") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val s = GraphOps.split(g, spark)
    assert(s.count() === g.numVertices)
    assert(s.select("vid").distinct().count() === g.numVertices)
  }

  test("split proportions are ~10/10/80") {
    val (g, _) = TestGraphs.smallGrid(spark) // 400 vertices
    val byRole = GraphOps.split(g, spark).groupBy("role").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val n = g.numVertices.toDouble
    assert(byRole("train") / n > 0.05 && byRole("train") / n < 0.15)
    assert(byRole("val") / n > 0.05 && byRole("val") / n < 0.15)
    assert(byRole("test") / n > 0.70)
  }

  test("split is deterministic") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val a = GraphOps.split(g, spark)
    val b = GraphOps.split(g, spark)
    assert(a.except(b).count() === 0)
  }

  test("trainMask agrees with split") {
    val (g, _) = TestGraphs.smallGrid(spark)
    val mask = GraphOps.trainMask(g, spark)
    val trainSet = GraphOps.split(g, spark).filter(col("role") === "train")
      .select("vid").collect().map(_.getLong(0).toInt).toSet
    mask.zipWithIndex.foreach { case (m, v) => assert(m === trainSet.contains(v)) }
  }
}

package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

class GraphGenSpec extends SparkSpec {

  test("powerLaw: vertex ids are dense in [0, numV)") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    val mm = g.edges.agg(min("src"), max("src"), min("dst"), max("dst")).head()
    assert(mm.getLong(0) >= 0 && mm.getLong(1) < g.numVertices)
    assert(mm.getLong(2) >= 0 && mm.getLong(3) < g.numVertices)
  }

  test("powerLaw: no self loops") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.filter(col("src") === col("dst")).count() === 0)
  }

  test("powerLaw: no duplicate edges") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.count() === g.edges.dropDuplicates("src", "dst").count())
  }

  test("powerLaw: undirected edges canonicalized src < dst") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.edges.filter(col("src") >= col("dst")).count() === 0)
  }

  test("powerLaw: directed graphs may have src > dst") {
    val (g, _) = TestGraphs.smallWeb(spark)
    assert(g.edges.filter(col("src") > col("dst")).count() > 0)
  }

  test("powerLaw: edge count close to the target") {
    val (g, _) = TestGraphs.smallPowerLaw(spark)
    assert(g.numEdges > 2000 && g.numEdges <= 3000)
  }

  test("powerLaw: deterministic in the seed") {
    val a = GraphGen.powerLaw(spark, "A", "t", 200, 800, 0.9, directed = false, seed = 5)
    val b = GraphGen.powerLaw(spark, "B", "t", 200, 800, 0.9, directed = false, seed = 5)
    assert(a.edges.except(b.edges).count() === 0)
    assert(b.edges.except(a.edges).count() === 0)
  }

  test("powerLaw: keeps only the returned edge set cached") {
    val before = spark.sparkContext.getPersistentRDDs.size
    val g = GraphGen.powerLaw(spark, "C", "t", 300, 1500, 1.0, directed = false, seed = 99)
    g.edges.count()
    assert(spark.sparkContext.getPersistentRDDs.size === before + 1)
  }

  test("powerLaw: different seeds give different graphs") {
    val a = GraphGen.powerLaw(spark, "A", "t", 200, 800, 0.9, directed = false, seed = 5)
    val b = GraphGen.powerLaw(spark, "B", "t", 200, 800, 0.9, directed = false, seed = 6)
    assert(a.edges.except(b.edges).count() > 0)
  }

  test("powerLaw: degree distribution is skewed (hub much above mean)") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    val mean = cg.meanDegree
    assert(cg.degree.max > 5 * mean, s"max=${cg.degree.max} mean=$mean")
  }

  test("grid: low max degree and near-zero skew") {
    val (_, cg) = TestGraphs.smallGrid(spark)
    assert(cg.degree.max <= 10, s"road analog should have small max degree, got ${cg.degree.max}")
  }

  test("grid: lattice edge count matches 2rc - r - c plus shortcuts") {
    val g = GraphGen.grid(spark, "G", 10, 10, 0, directed = false, seed = 1)
    assert(g.numEdges === 2 * 10 * 10 - 10 - 10)
  }

  test("grid: a seed whose seed·7919·40499 overflows a long gives the graph of seed mod 999983") {
    val seed = 40000000000L
    val a = GraphGen.grid(spark, "G", 10, 10, 20, directed = true, seed = seed)
    val b = GraphGen.grid(spark, "G", 10, 10, 20, directed = true, seed = seed % 999983L)
    assert(a.edges.except(b.edges).count() === 0 && a.numEdges === b.numEdges)
  }

  test("grid: vertex ids dense") {
    val (g, _) = TestGraphs.smallGrid(spark)
    val mm = g.edges.agg(max(greatest(col("src"), col("dst")))).head().getLong(0)
    assert(mm < g.numVertices)
  }

  test("compact round trip preserves edge multiset") {
    val (g, cg) = TestGraphs.smallPowerLaw(spark)
    assert(cg.numEdges.toLong === g.numEdges)
    assert(cg.numVertices.toLong === g.numVertices)
  }

  test("compact adjacency is symmetric (undirected view) and consistent") {
    val (_, cg) = TestGraphs.smallPowerLaw(spark)
    assert(cg.adjOff.last === 2 * cg.numEdges)
    // every edge appears once from each side
    val fromSrc = cg.neighbors(cg.src(0))
    assert(fromSrc.contains(cg.dst(0)))
    val fromDst = cg.neighbors(cg.dst(0))
    assert(fromDst.contains(cg.src(0)))
  }

  test("compact degrees sum to 2|E|") {
    val (_, cg) = TestGraphs.smallGrid(spark)
    assert(cg.degree.map(_.toLong).sum === 2L * cg.numEdges)
  }
}

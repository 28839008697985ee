package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Sanity checks of the DuckDB oracle — the correctness infrastructure
  * every metric test relies on — over a small graph's edge DataFrame.
  */
class OracleSelfSpec extends SparkSpec {

  private lazy val edges: DataFrame = TestGraphs.smallPowerLaw(spark)._1.edges
  private val outDegreeSql = "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src"

  test("oracle agrees on a simple aggregate over graph edges") {
    Oracle.assertEquivalent(edges.groupBy("src").agg(count(lit(1)) as "deg"), outDegreeSql, "edges" -> edges)
  }

  test("oracle catches a wrong result") {
    val wrong = edges.groupBy("src").agg((count(lit(1)) + 1) as "deg")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, outDegreeSql, "edges" -> edges)
    }
  }

  test("oracle catches a column-name mismatch") {
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(edges.groupBy("src").agg(count(lit(1)) as "wrong_name"), outDegreeSql, "edges" -> edges)
    }
  }
}

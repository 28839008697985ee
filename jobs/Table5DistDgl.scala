package repro.jobs

import repro.graph.Datasets
import repro.harness.Tables

/** spark-submit entrypoint: reproduce Table 5 — epochs until the
  * partitioning time is amortized by faster DistDGL (mini-batch) training.
  */
object Table5DistDgl {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Table5DistDgl")
    println("=== Table 5: epochs to amortize partitioning (DistDGL, mini-batch GraphSage) ===")
    println(Tables.renderAmortizationTable(Datasets.distDglKeys, Tables.table5Algos, Tables.table5(spark)))
    spark.stop()
  }
}

package repro.jobs

import repro.graph.Datasets
import repro.harness.Tables

/** spark-submit entrypoint: reproduce Table 4 — epochs until the
  * partitioning time is amortized by faster DistGNN (full-batch) training.
  */
object Table4DistGnn {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Table4DistGnn")
    println("=== Table 4: epochs to amortize partitioning (DistGNN, full-batch GraphSage) ===")
    println(Tables.renderAmortizationTable(Datasets.distGnnKeys, Tables.table4Algos, Tables.table4(spark)))
    spark.stop()
  }
}

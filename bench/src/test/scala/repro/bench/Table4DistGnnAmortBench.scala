package repro.bench

import repro.amortize.Amortization
import repro.graph.Datasets
import repro.harness.Tables

/** Table 4: epochs until graph partitioning time is amortized by faster
  * DistGNN (full-batch GraphSage) training, per (graph, partitioner).
  *
  * Paper values for reference (epochs; "no" = slowdown):
  *   graph | DBH  | 2PS-L | HDRF | HEP10 | HEP100
  *   EN    | 1.39 | 4.57  | 4.64 | 3.35  | 4.29
  *   EU    | 3.79 | no    | 8.8  | 10.15 | 12.0
  *   HO/HW | 3.05 | 4.22  | 7.26 | 4.48  | 4.7
  *   OR    | 3.83 | 7.39  | 11.69| 6.64  | 7.03
  */
class Table4DistGnnAmortBench extends BenchSpec {

  test("Table 4: partitioning amortizes within a few epochs for DistGNN") {
    val t = Tables.table4(spark)
    banner("Table 4: epochs to amortize partitioning (DistGNN)")
    println(Tables.renderAmortizationTable(Datasets.distGnnKeys, Tables.table4Algos, t))

    def v(g: String, a: String): Option[Double] = t((g, a))

    // every cell defined (some value or "no")
    for (g <- Datasets.distGnnKeys; a <- Tables.table4Algos) assert(t.contains((g, a)))

    // DBH (cheapest partitioner with a real speedup) amortizes fastest
    // on average across graphs — paper: 1.39-3.83 epochs
    val dbhMean = Datasets.distGnnKeys.flatMap(g => v(g, "DBH")).sum / 4
    for (a <- Seq("HDRF", "HEP10", "HEP100")) {
      val m = Datasets.distGnnKeys.flatMap(g => v(g, a))
      val mean = m.sum / math.max(1, m.size)
      assert(dbhMean < mean, s"DBH mean $dbhMean vs $a mean $mean")
    }

    // amortization happens within typical training lengths (full-batch
    // training runs for hundreds of epochs — paper §4.3(5))
    for (g <- Datasets.distGnnKeys; a <- Tables.table4Algos; e <- v(g, a)) {
      assert(e > 0 && e < 100, s"$g $a: $e epochs")
    }

    // the high-speedup partitioners all amortize on every graph
    for (g <- Datasets.distGnnKeys; a <- Seq("DBH", "HDRF", "HEP10", "HEP100")) {
      assert(v(g, a).isDefined, s"$g $a should amortize")
    }

    // 2PS-L on EU is the paper's "no" cell (vertex-imbalance slowdown);
    // in our reproduction 2PS-L is at best marginal on EU
    val eu2ps = v("EU", "2PS-L")
    assert(eu2ps.isEmpty || eu2ps.get > dbhMean, s"2PS-L on EU: $eu2ps")

    println()
    println("Paper Table 4 for comparison:")
    println("EN | 1.39 | 4.57 | 4.64 | 3.35 | 4.29")
    println("EU | 3.79 | no   | 8.8  | 10.15| 12.0")
    println("HW | 3.05 | 4.22 | 7.26 | 4.48 | 4.7")
    println("OR | 3.83 | 7.39 | 11.69| 6.64 | 7.03")
  }

  test("amortization accounting is self-consistent") {
    // reconstruct one cell by hand from the cached runs
    val g = "EN"
    val k = 8
    val tPart = repro.harness.Experiments.edgeRun(spark, g, "DBH", k).partTime
    val pairs = Tables.table4Grid.map { p =>
      (Tables.distGnnEpochTime(spark, g, "Random", k, p),
       Tables.distGnnEpochTime(spark, g, "DBH", k, p))
    }
    val cell = Amortization.averageEpochs(tPart, pairs)
    assert(cell.isDefined)
    // manual: every pair with positive saving contributes tPart/saving
    val manual = pairs.collect { case (r, a) if r > a => tPart / (r - a) }
    assert(math.abs(cell.get - manual.sum / manual.size) < 1e-9)
  }
}

package repro.bench

import repro.SparkSpec

/** Base for the benchmark suites: one shared SparkSession and a banner
  * helper so `bench_output.txt` is readable.
  */
trait BenchSpec extends SparkSpec {

  def banner(title: String): Unit = {
    println()
    println("=" * 78)
    println(s"== $title")
    println("=" * 78)
  }
}

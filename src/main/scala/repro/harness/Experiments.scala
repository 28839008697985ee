package repro.harness

import org.apache.spark.sql.SparkSession
import repro.distdgl.WorkerSample
import repro.gnn.CostModel
import repro.graph._
import repro.metrics._
import repro.partition._

/** One evaluated edge partitioning: quality + simulated partitioning time. */
final case class EdgeRun(
    graphKey: String,
    algo: String,
    k: Int,
    quality: EdgeCutQuality,
    partTime: Double,
)

/** One evaluated vertex partitioning. */
final case class VertexRun(
    graphKey: String,
    algo: String,
    k: Int,
    quality: VertexCutQuality,
    partTime: Double,
    assign: Array[Int],
)

/** Shared, memoized experiment state for the bench suites: the paper-graph
  * analogs, partition assignments, quality metrics, and sampled mini-batches
  * are computed once per (graph, partitioner, k) and reused by every table
  * and shape bench running in the same JVM.
  */
object Experiments {
  import scala.collection.concurrent.TrieMap

  /** Bench scale: 1.0 = 1/1000 of the paper's graphs (see Datasets). */
  @volatile var scale: Double = 1.0

  /** Machine counts studied in the paper. */
  val machineCounts: Seq[Int] = Seq(4, 8, 16, 32)

  /** Global batch size analog (paper: 1024 at ~1000× our vertex counts). */
  val defaultGbs: Int = 64

  private val graphCache = TrieMap.empty[String, (Graph, CompactGraph)]
  private val maskCache = TrieMap.empty[String, Array[Boolean]]
  private val edgeRunCache = TrieMap.empty[(String, String, Int), EdgeRun]
  private val vertexRunCache = TrieMap.empty[(String, String, Int), VertexRun]
  private val sampleCache = TrieMap.empty[(String, String, Int, Int, Int), Seq[WorkerSample]]

  def graph(spark: SparkSession, key: String): (Graph, CompactGraph) =
    graphCache.getOrElseUpdate(key, {
      val g = Datasets.load(spark, key, scale)
      g.edges.cache().count()
      (g, g.compact())
    })

  def trainMask(spark: SparkSession, key: String): Array[Boolean] =
    maskCache.getOrElseUpdate(key, {
      val (g, _) = graph(spark, key)
      GraphOps.trainMask(g, spark)
    })

  def totalTrainVerts(spark: SparkSession, key: String): Long =
    trainMask(spark, key).count(identity).toLong

  /** Partition `key` with the named edge partitioner into k parts and
    * measure quality with Spark; memoized.
    */
  def edgeRun(spark: SparkSession, key: String, algo: String, k: Int): EdgeRun =
    edgeRunCache.getOrElseUpdate((key, algo, k), {
      val (g, cg) = graph(spark, key)
      val p = Partitioners.edgePartitioner(algo)
      val res = p.partition(cg, k, seed = 7)
      val df = PartitionBridge.edgeDf(spark, cg, res.part)
      val q = PartitionMetrics.edgeCutQuality(g, df, k)
      EdgeRun(key, algo, k, q, CostModel.partitioningTime(algo, res.cost))
    })

  /** Partition `key` with the named vertex partitioner into k parts and
    * measure quality with Spark; memoized. The sampler reads the
    * assignment array, so the assignment DataFrame is released once scored.
    */
  def vertexRun(spark: SparkSession, key: String, algo: String, k: Int): VertexRun =
    vertexRunCache.getOrElseUpdate((key, algo, k), {
      val (g, cg) = graph(spark, key)
      val p = Partitioners.vertexPartitioner(algo)
      val res = p.partition(cg, k, trainMask(spark, key), seed = 7)
      val df = PartitionBridge.vertexDf(spark, res.part).cache()
      df.count()
      val q = PartitionMetrics.vertexCutQuality(g, spark, df, k)
      df.unpersist()
      VertexRun(key, algo, k, q, CostModel.partitioningTime(algo, res.cost), res.part)
    })

  /** One sampled synchronous step for every worker; memoized per
    * (graph, algo, k, layers, gbs). Uses the driver-side FastSampler,
    * which is decision-identical to the Spark sampler (tested).
    */
  def samples(
      spark: SparkSession,
      key: String,
      algo: String,
      k: Int,
      layers: Int,
      gbs: Int = defaultGbs,
  ): Seq[WorkerSample] =
    sampleCache.getOrElseUpdate((key, algo, k, layers, gbs), {
      val (_, cg) = graph(spark, key)
      val run = vertexRun(spark, key, algo, k)
      val fanouts = repro.gnn.GnnParams(layers = layers).fanouts
      repro.distdgl.FastSampler.sampleStep(
        cg, run.assign, trainMask(spark, key), k, fanouts, gbs, seed = 13)
    })
}

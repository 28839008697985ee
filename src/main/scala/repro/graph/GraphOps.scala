package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-level graph operations shared by metrics, sampling, and the
  * stateless (pure-DataFrame) partitioners.
  */
object GraphOps {

  /** Undirected degree per vertex: both endpoints of every edge count.
    * Vertices with no edges appear with degree 0.
    */
  def degrees(g: Graph, spark: SparkSession): DataFrame = {
    val ends = g.edges
      .select(col("src") as "vid")
      .union(g.edges.select(col("dst") as "vid"))
    g.vertices(spark)
      .join(ends.groupBy("vid").agg(count(lit(1)) as "degree"), Seq("vid"), "left")
      .na
      .fill(0L, Seq("degree"))
  }

  /** Message-passing adjacency `(v, nbr)`: the neighbors whose state `v`
    * aggregates. For directed graphs a vertex aggregates its in-neighbors
    * (GNN convention: messages flow along edge direction); for undirected
    * graphs both directions are present.
    */
  def adjacency(g: Graph): DataFrame = {
    val in = g.edges.select(col("dst") as "v", col("src") as "nbr")
    if (g.directed) in
    else in.union(g.edges.select(col("src") as "v", col("dst") as "nbr"))
  }

  /** Seed of the split hash. It is fixed, so the metrics, the samplers and
    * the partitioners all see the same training vertices.
    */
  private val SplitSeed = 42

  /** Split bucket in [0, 10) of a vertex id: a seeded hash of the id. */
  private def bucket(vid: Column): Column = pmod(hash(vid, lit(SplitSeed)), lit(10))

  /** Whether vertex `vid` is a training vertex (bucket 0 of the split). */
  def isTrain(vid: Column): Column = bucket(vid) === 0

  /** The paper's split: 10% train / 10% val / 80% test, chosen by a seeded
    * hash of the vertex id. Returns `(vid, role)` with role in
    * {train, val, test}.
    */
  def split(g: Graph, spark: SparkSession): DataFrame = {
    val vid = col("vid")
    g.vertices(spark)
      .select(vid, when(isTrain(vid), "train").when(bucket(vid) === 1, "val").otherwise("test") as "role")
  }

  /** Train-vertex flags as a driver array (for ByteGNN-style partitioning). */
  def trainMask(g: Graph, spark: SparkSession): Array[Boolean] = {
    val mask = new Array[Boolean](g.numVertices.toInt)
    g.vertices(spark)
      .filter(isTrain(col("vid")))
      .collect()
      .foreach(r => mask(r.getLong(0).toInt) = true)
    mask
  }
}

package repro.distdgl

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{lit, pmod}
import repro.graph.CompactGraph

/** Deterministic pseudo-random ordering key shared by the Spark sampler
  * and the driver-side [[FastSampler]] so both make *identical* sampling
  * decisions (tested for equality). Plain arithmetic so it is expressible
  * both as a Spark column and on the driver.
  */
object SampleOrder {
  // prime modulus with a multiplier that wraps many times — a multiplier
  // congruent to a small number mod Mod would degenerate to id order
  val Mod = 999983L
  val Mult = 40499L

  /** seed·7919 reduced mod Mod: the key only depends on it mod Mod, and a
    * reduced term keeps (v + term)·Mult inside a long for any seed.
    */
  def seedTerm(seed: Long): Long = Math.floorMod(seed, Mod) * 7919L % Mod

  /** [[key]] with the seed term computed once by the caller. */
  def keyOf(v: Long, term: Long): Long = (((v + term) * Mult) % Mod + Mod) % Mod

  def key(v: Long, seed: Long): Long = keyOf(v, seedTerm(seed))

  def col(v: Column, seed: Long): Column =
    pmod((v + lit(seedTerm(seed))) * Mult, lit(Mod))
}

/** Driver-side twin of [[Sampler.sampleStep]] over the CSR graph — same
  * roots, same per-vertex fanout draws, same counters, ~1000× faster at
  * bench scale. The Spark implementation remains the distributed-dataflow
  * reference path; the bench harness uses this one.
  */
object FastSampler {

  def sampleStep(
      cg: CompactGraph,
      assign: Array[Int],
      trainMask: Array[Boolean],
      k: Int,
      fanouts: Seq[Int],
      gbs: Int,
      seed: Long,
  ): Seq[WorkerSample] = {
    val perWorker = math.max(1, gbs / k)

    // message adjacency: in-neighbors for directed graphs, both
    // directions for undirected (mirrors GraphOps.adjacency)
    val (adjOff, adjNbr) =
      if (cg.directed) inAdjacency(cg) else (cg.adjOff, cg.adjNbr)

    (0 until k).map { w =>
      // roots: local training vertices, ordered by the shared key
      val local = (0 until cg.numVertices).filter(v => assign(v) == w && trainMask(v))
      val rootTerm = SampleOrder.seedTerm(seed)
      val roots = local.sortBy(v => (SampleOrder.keyOf(v.toLong, rootTerm), v.toLong)).take(perWorker)

      var frontier: Seq[Int] = roots
      val frontierSizes = scala.collection.mutable.ArrayBuffer[Long](roots.size.toLong)
      val edgesPerHop = scala.collection.mutable.ArrayBuffer.empty[Long]
      var remoteExpanded = 0L
      val visited = scala.collection.mutable.Set.empty[Int] ++ roots

      fanouts.zipWithIndex.foreach { case (fanout, t) =>
        val term = SampleOrder.seedTerm(seed + t + 1)
        remoteExpanded += frontier.count(v => assign(v) != w)
        var edges = 0L
        val next = scala.collection.mutable.Set.empty[Int]
        frontier.foreach { v =>
          val from = adjOff(v); val to = adjOff(v + 1)
          val nbrs = (from until to).map(adjNbr)
          val sampled =
            if (nbrs.size <= fanout) nbrs
            else nbrs
              .sortBy(n => (SampleOrder.keyOf(n.toLong, term), n.toLong))
              .take(fanout)
          edges += sampled.size
          next ++= sampled
        }
        edgesPerHop += edges
        frontier = next.toSeq
        frontierSizes += next.size.toLong
        visited ++= next
      }

      val inputs = visited.size.toLong
      val remote = visited.count(v => assign(v) != w).toLong
      WorkerSample(
        worker = w,
        roots = roots.size.toLong,
        edgesPerHop = edgesPerHop.toSeq,
        frontierPerHop = frontierSizes.toSeq,
        remoteExpanded = remoteExpanded,
        inputVerts = inputs,
        remoteInputVerts = remote,
      )
    }
  }

  /** Reverse CSR: for directed graphs, `(v = dst, nbr = src)`. */
  private def inAdjacency(cg: CompactGraph): (Array[Int], Array[Int]) = {
    val off = new Array[Int](cg.numVertices + 1)
    var i = 0
    while (i < cg.numEdges) { off(cg.dst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < cg.numVertices) { off(i + 1) += off(i); i += 1 }
    val nbr = new Array[Int](cg.numEdges)
    val cur = java.util.Arrays.copyOf(off, off.length)
    i = 0
    while (i < cg.numEdges) {
      val d = cg.dst(i)
      nbr(cur(d)) = cg.src(i); cur(d) += 1
      i += 1
    }
    (off, nbr)
  }
}

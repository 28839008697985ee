package repro.perfbench

import repro.distdgl.WorkerSample
import repro.graph.CompactGraph
import repro.metrics.{EdgeCutQuality, EdgePartLoad, VertexCutQuality, VertexPartLoad}

/** Output checks, run outside the timed region. Each quality is recounted
  * on the driver from the assignment array alone; integer loads must match
  * exactly and ratios to within 1e-9. Every check returns its mismatches,
  * so an empty result means the cell is correct.
  */
object Check {
  private val Tol = 1e-9

  /** `name` mismatches unless the program's value equals the expected one. */
  def same[A](name: String, got: A, expected: A): Seq[String] =
    if (got == expected) Nil else Seq(s"$name: got $got, expected $expected")

  private def close(name: String, got: Double, expected: Double): Seq[String] =
    if (math.abs(got - expected) <= Tol * math.max(1.0, math.abs(expected))) Nil
    else Seq(s"$name: got $got, expected $expected")

  private def maxOverMean(xs: Array[Long]): Double = {
    val mean = xs.sum.toDouble / xs.length
    if (mean == 0) 1.0 else xs.max / mean
  }

  private def outOfRange(assign: Array[Int], k: Int): Option[String] = {
    val bad = assign.count(p => p < 0 || p >= k)
    if (bad == 0) None else Some(s"$bad assignments outside [0, $k)")
  }

  /** Recounts an edge partitioning (vertex-cut): per-part edges, covered
    * and sync vertices, replication factor and both balances.
    */
  def edgeCut(g: CompactGraph, assign: Array[Int], k: Int, q: EdgeCutQuality): Seq[String] = {
    require(k <= 64, "one coverage bit per part")
    if (assign.length != g.numEdges) return Seq(s"${assign.length} assignments for ${g.numEdges} edges")
    outOfRange(assign, k).foreach(e => return Seq(e))
    val edges = new Array[Long](k)
    val covers = new Array[Long](g.numVertices) // bit p: part p covers the vertex
    var i = 0
    while (i < g.numEdges) {
      val bit = 1L << assign(i)
      edges(assign(i)) += 1
      covers(g.src(i)) |= bit
      covers(g.dst(i)) |= bit
      i += 1
    }
    val verts = new Array[Long](k)
    val sync = new Array[Long](k)
    for (c <- covers; p <- 0 until k if (c >>> p & 1L) == 1L) {
      verts(p) += 1
      if (java.lang.Long.bitCount(c) >= 2) sync(p) += 1
    }
    same("k", q.k, k) ++
      same("|V|", q.numVertices, g.numVertices.toLong) ++
      same("|E|", q.numEdges, g.numEdges.toLong) ++
      same("per-part loads", q.perPart, (0 until k).map(p => EdgePartLoad(p, edges(p), verts(p), sync(p)))) ++
      close("replication factor", q.replicationFactor, verts.sum.toDouble / g.numVertices) ++
      close("edge balance", q.edgeBalance, maxOverMean(edges)) ++
      close("vertex balance", q.vertexBalance, maxOverMean(verts))
  }

  /** Recounts a vertex partitioning (edge-cut): per-part vertices, training
    * vertices and local edges, the edge-cut ratio and both balances.
    */
  def vertexCut(
      g: CompactGraph,
      assign: Array[Int],
      train: Array[Boolean],
      k: Int,
      q: VertexCutQuality,
  ): Seq[String] = {
    if (assign.length != g.numVertices) return Seq(s"${assign.length} assignments for ${g.numVertices} vertices")
    outOfRange(assign, k).foreach(e => return Seq(e))
    val verts = new Array[Long](k)
    val trainVerts = new Array[Long](k)
    val local = new Array[Long](k)
    var cut = 0L
    for (v <- assign.indices) {
      verts(assign(v)) += 1
      if (train(v)) trainVerts(assign(v)) += 1
    }
    for (i <- 0 until g.numEdges) {
      val p = assign(g.src(i))
      if (p == assign(g.dst(i))) local(p) += 1 else cut += 1
    }
    val loads = (0 until k).map(p => VertexPartLoad(p, verts(p), trainVerts(p), local(p)))
    same("k", q.k, k) ++
      same("|V|", q.numVertices, g.numVertices.toLong) ++
      same("|E|", q.numEdges, g.numEdges.toLong) ++
      same("per-part loads", q.perPart, loads) ++
      close("edge-cut ratio", q.edgeCutRatio, if (g.numEdges == 0) 0.0 else cut.toDouble / g.numEdges) ++
      close("vertex balance", q.vertexBalance, maxOverMean(verts)) ++
      close("training-vertex balance", q.trainVertexBalance, maxOverMean(trainVerts))
  }

  /** Sampler invariants of one synchronous step: one sample per worker, at
    * most ⌈gbs/k⌉ roots each, one edge count per hop, and no more remote
    * input vertices than input vertices.
    */
  def samples(s: Seq[WorkerSample], k: Int, gbs: Int, layers: Int): Seq[String] = {
    val maxRoots = (gbs + k - 1) / k
    same("workers", s.map(_.worker), 0 until k) ++ s.flatMap { w =>
      val at = s"worker ${w.worker}"
      (if (w.remoteInputVerts <= w.inputVerts) Nil
       else Seq(s"$at: ${w.remoteInputVerts} remote of ${w.inputVerts} input vertices")) ++
        (if (w.roots <= maxRoots) Nil else Seq(s"$at: ${w.roots} roots > $maxRoots")) ++
        same(s"$at hops", w.edgesPerHop.size, layers)
    }
  }

  /** Simulated times must be positive and finite. */
  def positive(name: String, xs: Seq[Double]): Seq[String] =
    xs.filterNot(x => x > 0 && !x.isInfinite).map(x => s"$name: $x")
}

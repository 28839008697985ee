package repro.bench

import repro.distdgl.DistDglSim
import repro.gnn.GnnParams
import repro.graph.Datasets
import repro.harness.{Experiments, Tables}

/** Figure-level shape checks for the DistDGL (mini-batch, edge-cut) half
  * of the study: edge-cut (Fig. 12), input-vertex balance (Fig. 14),
  * partitioning time (Fig. 15), speedups (Fig. 16), phase times (Fig. 19),
  * scale-out (Fig. 24), batch-size sweep (Fig. 26).
  */
class ShapeDistDglBench extends BenchSpec {

  private val algos = Seq("Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP")
  private val graphs = Datasets.distDglKeys

  private def cut(g: String, a: String, k: Int): Double =
    Experiments.vertexRun(spark, g, a, k).quality.edgeCutRatio

  test("Fig 12-like: edge-cut ratio per graph, partitioner, partition count") {
    banner("Edge-cut ratio (k=4 | k=8 | k=16 | k=32)")
    println(f"${"graph"}%-6s${"algo"}%-9s ec4    ec8    ec16   ec32")
    for (g <- graphs; a <- algos) {
      val cuts = Experiments.machineCounts.map(k => cut(g, a, k))
      println(f"$g%-6s$a%-9s" + cuts.map(c => f"$c%6.3f ").mkString)
    }
    // Random worst everywhere; edge-cut grows with k
    for (g <- graphs; k <- Experiments.machineCounts) {
      val cs = algos.map(a => a -> cut(g, a, k)).toMap
      assert(cs("Random") >= cs.values.max - 1e-9, s"$g k=$k: $cs")
    }
    for (g <- graphs; a <- algos) {
      assert(cut(g, a, 32) >= cut(g, a, 4) - 1e-9, s"$g $a")
    }
    // KaHIP achieves the lowest edge-cut in most cases (paper §5.2)
    val wins = (for (g <- graphs; k <- Experiments.machineCounts) yield {
      val cs = algos.map(a => a -> cut(g, a, k)).toMap
      cs("KaHIP") <= cs.values.min + 1e-9
    })
    assert(wins.count(identity) >= wins.size / 2, s"KaHIP wins ${wins.count(identity)}/${wins.size}")
    // road graph: KaHIP tiny, Random huge (paper: <0.001 vs 0.68 on DI —
    // at 1/1000 scale the patch-perimeter/area ratio bounds the cut near
    // ~0.05, see EXPERIMENTS.md)
    assert(cut("DI", "KaHIP", 32) < 0.15, cut("DI", "KaHIP", 32).toString)
    assert(cut("DI", "KaHIP", 32) < 0.2 * cut("DI", "Random", 32))
    assert(cut("DI", "Random", 32) > 0.5)
  }

  test("Fig 15-like: partitioning time — KaHIP slowest, streaming cheapest") {
    banner("Partitioning time (simulated seconds, k=32)")
    for (g <- graphs) {
      val ts = algos.map(a => a -> Experiments.vertexRun(spark, g, a, 32).partTime).toMap
      println(f"$g%-6s" + algos.map(a => f"$a=${ts(a)}%9.4f ").mkString)
      assert(ts("KaHIP") >= ts.values.max - 1e-12, s"$g: $ts")
      assert(ts("LDG") < ts("Metis"), s"$g: $ts")
      assert(ts("Random") <= ts.values.min + 1e-12, s"$g: $ts")
      assert(ts("KaHIP") > 20 * ts("Metis"), s"$g KaHIP/Metis ratio: $ts")
    }
  }

  test("Fig 13/14-like: training vertices balanced, input vertices imbalanced") {
    banner("Training-vertex balance and input-vertex balance (k=8, 3 layers)")
    for (g <- graphs; a <- algos) {
      val q = Experiments.vertexRun(spark, g, a, 8).quality
      val s = Experiments.samples(spark, g, a, 8, 3)
      val e = DistDglSim.epoch(s, GnnParams(layers = 3), 8, Experiments.defaultGbs,
        Experiments.totalTrainVerts(spark, g))
      println(f"$g%-6s$a%-9s trainVB=${q.trainVertexBalance}%5.2f  inputVB=${e.inputVertexBalance}%5.2f")
      // ByteGNN explicitly balances training vertices
      if (a == "ByteGNN") assert(q.trainVertexBalance < 1.5, s"$g: ${q.trainVertexBalance}")
    }
    // input-vertex imbalance exceeds training-vertex imbalance on average
    val (ivbs, tvbs) = (for (g <- graphs; a <- algos) yield {
      val q = Experiments.vertexRun(spark, g, a, 8).quality
      val s = Experiments.samples(spark, g, a, 8, 3)
      (DistDglSim.epoch(s, GnnParams(layers = 3), 8, Experiments.defaultGbs,
        Experiments.totalTrainVerts(spark, g)).inputVertexBalance, q.trainVertexBalance)
    }).unzip
    assert(ivbs.sum / ivbs.size > 1.02)
  }

  test("Fig 16-like: speedup of partitioners vs Random for GraphSage") {
    banner("Mean DistDGL speedup vs Random (f,h grid at 3 layers)")
    println(f"${"graph"}%-6s${"algo"}%-9s  k=4    k=8    k=16   k=32")
    val speed = scala.collection.mutable.Map.empty[(String, String, Int), Double]
    for (g <- graphs; a <- algos.drop(1)) {
      val row = Experiments.machineCounts.map { k =>
        val s = Tables.meanSpeedup(Tables.table5Grid, Tables.distDglEpochTime(spark, _, _, _, _), g, a, k)
        speed((g, a, k)) = s
        f"$s%6.2f "
      }
      println(f"$g%-6s$a%-9s" + row.mkString)
    }
    // KaHIP and Metis lead (paper: up to 1.84-3.47); magnitudes bounded
    for (k <- Seq(4, 32)) {
      val leaders = graphs.map { g =>
        algos.drop(1).maxBy(a => speed((g, a, k)))
      }
      assert(leaders.count(Set("KaHIP", "Metis", "ByteGNN")) >= 3, s"k=$k leaders=$leaders")
    }
    assert(speed.values.forall(_ < 8.0))
    // Metis/KaHIP beat Random on every graph on average over k. The HW
    // analog is essentially uncuttable at this scale (cut ≈ Random's), so
    // there it only must not hurt.
    for (g <- graphs; a <- Seq("Metis", "KaHIP")) {
      val avg = Experiments.machineCounts.map(k => speed((g, a, k))).sum / 4
      if (g == "HW") assert(avg > 0.95, s"$g $a: $avg")
      else assert(avg > 1.0, s"$g $a: $avg")
    }
  }

  test("Fig 19-like: feature fetching dominates sampling for large features, except on the road graph") {
    banner("Phase times, 3-layer GraphSage, h=64, k=4 (straggler seconds/epoch)")
    def phases(g: String, f: Int) = {
      val s = Experiments.samples(spark, g, "Metis", 4, 3)
      DistDglSim.epoch(s, GnnParams(featureSize = f, hidden = 64, layers = 3), 4,
        Experiments.defaultGbs, Experiments.totalTrainVerts(spark, g)).phases
    }
    for (g <- Seq("EU", "DI"); f <- Seq(16, 64, 512)) {
      val p = phases(g, f)
      println(f"$g f=$f%-4d sample=${p.sampling}%8.5f fetch=${p.featureFetch}%8.5f fwd=${p.forward}%8.5f bwd=${p.backward}%8.5f")
    }
    // EU: fetch overtakes sampling at f=512 (paper Fig. 19a)
    assert(phases("EU", 512).featureFetch > phases("EU", 512).sampling)
    // DI: sampling stays above fetch even at f=512 (paper Fig. 19b)
    assert(phases("DI", 512).sampling > phases("DI", 512).featureFetch)
    // fetch grows with f; sampling does not
    assert(phases("EU", 512).featureFetch > phases("EU", 16).featureFetch * 5)
    assert(math.abs(phases("EU", 512).sampling - phases("EU", 16).sampling) < 1e-9)
  }

  test("feature-size effect: partitioning more effective for larger features (paper Fig. 18)") {
    banner("KaHIP speedup vs Random by feature size (k=4)")
    def sp(g: String, f: Int): Double = {
      val p = GnnParams(featureSize = f, hidden = 64, layers = 3)
      Tables.distDglEpochTime(spark, g, "Random", 4, p) /
        Tables.distDglEpochTime(spark, g, "KaHIP", 4, p)
    }
    for (g <- Seq("EU", "OR", "EN")) {
      println(f"$g f=16: ${sp(g, 16)}%5.2f   f=512: ${sp(g, 512)}%5.2f")
      assert(sp(g, 512) > sp(g, 16), s"$g: ${sp(g, 16)} -> ${sp(g, 512)}")
    }
  }

  test("hidden-dimension effect: partitioning less effective for larger hidden dims (paper Fig. 20)") {
    def sp(g: String, h: Int): Double = {
      val p = GnnParams(featureSize = 64, hidden = h, layers = 3)
      Tables.distDglEpochTime(spark, g, "Random", 4, p) /
        Tables.distDglEpochTime(spark, g, "KaHIP", 4, p)
    }
    for (g <- Seq("EU", "OR")) {
      assert(sp(g, 16) > sp(g, 512), s"$g: h16=${sp(g, 16)} h512=${sp(g, 512)}")
    }
  }

  test("Fig 24-like: scale-out increases remote vertices in % of Random") {
    banner("Remote input vertices in % of Random, k=4 vs k=32 (3 layers)")
    def remotePct(g: String, a: String, k: Int): Double = {
      val s = Experiments.samples(spark, g, a, k, 3).map(_.remoteInputVerts).sum.toDouble
      val r = Experiments.samples(spark, g, "Random", k, 3).map(_.remoteInputVerts).sum.toDouble
      if (r == 0) 100.0 else 100.0 * s / r
    }
    val rising = for (g <- Seq("EN", "EU", "HW", "OR"); a <- Seq("Metis", "KaHIP")) yield {
      val p4 = remotePct(g, a, 4); val p32 = remotePct(g, a, 32)
      println(f"$g%-4s$a%-8s ${p4}%6.1f%% -> ${p32}%6.1f%%")
      p32 > p4
    }
    assert(rising.count(identity) >= rising.size / 2, s"${rising.count(identity)}/${rising.size}")
  }

  test("Fig 26-like: larger batches reduce relative network traffic; speedup grows for large features") {
    banner("Batch-size sweep on OR, k=16, 3-layer GraphSage, f=512, h=64")
    val gbss = Seq(16, 64, 256, 1024)
    val p = GnnParams(featureSize = 512, hidden = 64, layers = 3)
    def net(a: String, gbs: Int): Double = {
      val s = Experiments.samples(spark, "OR", a, 16, 3, gbs)
      DistDglSim.epoch(s, p, 16, gbs, Experiments.totalTrainVerts(spark, "OR")).totalNetworkBytes
    }
    def sp(a: String, gbs: Int): Double =
      Tables.distDglEpochTime(spark, "OR", "Random", 16, p, gbs) /
        Tables.distDglEpochTime(spark, "OR", a, 16, p, gbs)
    for (a <- Seq("KaHIP", "Metis", "Spinner")) {
      val netPct = gbss.map(b => 100.0 * net(a, b) / net("Random", b))
      val sps = gbss.map(b => sp(a, b))
      println(f"$a%-8s net%%ofRandom=" + netPct.map(x => f"$x%6.1f").mkString(" ")
        + "  speedup=" + sps.map(x => f"$x%5.2f").mkString(" "))
      // network traffic relative to Random falls as the batch grows
      assert(netPct.last < netPct.head, s"$a: $netPct")
    }
    // speedup for the good partitioners grows with the batch size at f=512
    for (a <- Seq("KaHIP", "Metis")) {
      assert(sp(a, 1024) > sp(a, 16), s"$a: ${sp(a, 16)} -> ${sp(a, 1024)}")
    }
  }
}

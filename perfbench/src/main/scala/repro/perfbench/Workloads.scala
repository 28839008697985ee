package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.amortize.Amortization
import repro.distdgl.{DistDglSim, FastSampler, WorkerSample}
import repro.distgnn.DistGnnSim
import repro.gnn.{CostModel, GnnConfig, GnnParams}
import repro.graph.{CompactGraph, Datasets, Graph, GraphOps}
import repro.harness.{Experiments, Tables}
import repro.metrics.{PartitionMetrics, VertexCutQuality}
import repro.partition._

/** Seeds of one run, derived from the benchmark's `--seed`. Seed 0 gives
  * the study's own: generator 11, partitioners 7, sampler 13. The strides
  * keep runs apart: the generator derives chunk seeds up to +7017 from its
  * seed, the sampler seed + hop from its.
  */
final case class Seeds(graph: Long, partition: Long, sampler: Long)

object Seeds {
  def apply(seed: Long): Seeds = Seeds(11 + 7919 * seed, 7 + seed, 13 + 101 * seed)
}

/** One unit of table output, timed from its start to its output. `check`
  * recounts it outside the timed region; `drift` compares it with what
  * `Experiments` returns for the same key, which holds at seed 0 only.
  * Both return their mismatches.
  */
final case class Cell(
    id: String,
    seconds: Double,
    rendered: String,
    check: () => Seq[String],
    drift: () => Seq[String],
)

/** Span names of the layers, after the modules under `repro/`. */
object Layers {
  def partition(cut: String, algo: String): String =
    "partition." + (if (algo == "Random") s"random_$cut" else algo.toLowerCase)

  val edgePartitions: Seq[String] = Partitioners.edgePartitioners.map(p => partition("edge", p.name))
  val vertexPartitions: Seq[String] = Partitioners.vertexPartitioners.map(p => partition("vertex", p.name))
}

/** State of one workload run: its graphs, generated on first use, and the
  * layer calls in the order `Experiments` makes them, each in a span.
  */
final class Run(val spark: SparkSession, val scale: Double, val seeds: Seeds, val tracer: Tracer) {
  val counts: mutable.Map[String, Double] = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private val graphs = mutable.Map.empty[String, (Graph, CompactGraph)]
  private val masks = mutable.Map.empty[String, Array[Boolean]]

  def graph(key: String): (Graph, CompactGraph) =
    graphs.getOrElseUpdate(key, {
      val g = tracer.span("graph.gen") {
        val g = Datasets.load(spark, key, scale, seeds.graph)
        g.edges.cache().count()
        g
      }
      val cg = tracer.span("graph.compact")(g.compact())
      counts("graph.edges") += cg.numEdges
      (g, cg)
    })

  def trainMask(key: String): Array[Boolean] =
    masks.getOrElseUpdate(key, tracer.span("graph.train_mask")(GraphOps.trainMask(graph(key)._1, spark)))

  private def addCost(c: PartitionCost): Unit = {
    counts("partition.edges_streamed") += c.edgesStreamed
    counts("partition.score_evals") += c.scoreEvals
    counts("partition.heavy_ops") += c.heavyOps
  }

  def partitionEdges(algo: String, cg: CompactGraph, k: Int): EdgePartitionResult = {
    val res = tracer.span(Layers.partition("edge", algo)) {
      Partitioners.edgePartitioner(algo).partition(cg, k, seeds.partition)
    }
    addCost(res.cost)
    res
  }

  def partitionVertices(algo: String, cg: CompactGraph, k: Int, mask: Array[Boolean]): VertexPartitionResult = {
    val res = tracer.span(Layers.partition("vertex", algo)) {
      Partitioners.vertexPartitioner(algo).partition(cg, k, mask, seeds.partition)
    }
    addCost(res.cost)
    res
  }

  /** Mini-batch `step` of a sampling run; step 0 is the study's. Step i
    * uses sampler seed + 10·i, and the hops add at most L ≤ 4 to it, so no
    * two steps share a seed.
    */
  def sample(cg: CompactGraph, assign: Array[Int], mask: Array[Boolean], k: Int, layers: Int, gbs: Int, step: Int = 0): Seq[WorkerSample] = {
    val s = tracer.span("sampler.step") {
      FastSampler.sampleStep(cg, assign, mask, k, GnnParams(layers = layers).fanouts, gbs, seeds.sampler + 10L * step)
    }
    counts("sampler.sampled_edges") += s.map(_.edgesPerHop.sum).sum
    s
  }

  /** Vertex partitioning, assignment bridge and Spark quality, in the
    * order of `Experiments.vertexRun`.
    */
  def vertexRun(key: String, algo: String, k: Int): (VertexPartitionResult, VertexCutQuality) = {
    val (g, cg) = graph(key)
    val res = partitionVertices(algo, cg, k, trainMask(key))
    val df = tracer.span("bridge.vertex_df") {
      val df = PartitionBridge.vertexDf(spark, res.part).cache()
      df.count()
      df
    }
    (res, tracer.span("metrics.vertex_cut")(PartitionMetrics.vertexCutQuality(g, spark, df, k)))
  }

  def cell(id: String)(body: => (String, () => Seq[String], () => Seq[String])): Cell = {
    val t0 = System.nanoTime()
    val (rendered, check, drift) = tracer.span("cell")(body)
    Cell(id, (System.nanoTime() - t0) / 1e9, rendered, check, drift)
  }
}

/** A fixed, ordered slice of the study. A run takes the first
  * `cellsPerSecond × --seconds` cells, so its work does not depend on how
  * fast the program is and a faster program finishes sooner.
  */
sealed trait Workload {
  def name: String
  def scale: Double
  def cellsPerSecond: Double
  def run(r: Run, cells: Int): Seq[Cell]

  def cellsFor(seconds: Int): Int = math.max(1, math.round(cellsPerSecond * seconds).toInt)
}

object Workloads {
  val all: Seq[Workload] = Seq(DistGnnTable4, DistDglTable5, DistDglSweep)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload $name; one of ${all.map(_.name).mkString(", ")}"))

  /** (graph, k) pairs: every graph in turn, with k rotating, so that a
    * prefix of the plan covers several graphs and several k.
    */
  def rotation(keys: Seq[String]): Seq[(String, Int)] =
    for (r <- Experiments.machineCounts.indices; (key, i) <- keys.zipWithIndex)
      yield (key, Experiments.machineCounts((i + r) % Experiments.machineCounts.size))
}

/** Table 4's DistGNN half: each cell partitions one graph with one edge
  * partitioner, scores it with the Spark edge metrics, simulates the
  * 27-config GraphSage grid and amortizes against Random.
  */
object DistGnnTable4 extends Workload {
  val name = "distgnn-table4"
  val scale = 0.1
  val cellsPerSecond = 0.35

  private val keys = Seq("OR", "EN", "EU", "HW")
  require(keys.toSet == Datasets.distGnnKeys.toSet)
  private val algos = Partitioners.edgePartitioners.map(_.name)
  require(algos.head == "Random", "the amortization baseline runs first in each group")

  def run(r: Run, cells: Int): Seq[Cell] = {
    val grid = GnnConfig.grid("GraphSage")
    val random = mutable.Map.empty[(String, Int), Seq[Double]]
    val plan = for ((key, k) <- Workloads.rotation(keys); algo <- algos) yield (key, k, algo)
    plan.take(cells).map { case (key, k, algo) =>
      r.cell(s"$key/$algo/$k") {
        val (g, cg) = r.graph(key)
        val res = r.partitionEdges(algo, cg, k)
        val df = r.tracer.span("bridge.edge_df")(PartitionBridge.edgeDf(r.spark, cg, res.part))
        val q = r.tracer.span("metrics.edge_cut")(PartitionMetrics.edgeCutQuality(g, df, k))
        val partTime = CostModel.partitioningTime(algo, res.cost)
        val epochs = r.tracer.span("distgnn.epoch")(grid.map(p => DistGnnSim.epoch(q, p).epochTime))
        r.counts("sim.epochs") += epochs.size
        val base = random.getOrElseUpdate((key, k), epochs)
        val amort = r.tracer.span("amortize")(Amortization.averageEpochs(partTime, base.zip(epochs)))
        (
          s"$key $algo k=$k rf=${q.replicationFactor} eb=${q.edgeBalance} vb=${q.vertexBalance} " +
            s"tpart=$partTime epoch=${epochs.sum} amortize=${amort.getOrElse("no")}",
          () => Check.edgeCut(cg, res.part, k, q) ++ Check.positive("epoch", epochs),
          () => {
            val e = Experiments.edgeRun(r.spark, key, algo, k)
            Check.same("quality", q, e.quality) ++ Check.same("partTime", partTime, e.partTime)
          },
        )
      }
    }
  }
}

/** Table 5's DistDGL half: each cell partitions one graph with one vertex
  * partitioner, scores it with the Spark vertex metrics, samples one step
  * (L = 3, gbs = 64), simulates `Tables.table5Grid` and amortizes against
  * Random.
  */
object DistDglTable5 extends Workload {
  val name = "distdgl-table5"
  val scale = 0.1
  val cellsPerSecond = 0.35

  // the costly in-memory partitioners right after the baseline, so a short
  // slice still runs them
  private val algos = Seq("Random", "KaHIP", "Metis", "ByteGNN", "LDG", "Spinner")
  require(algos.sorted == Partitioners.vertexPartitioners.map(_.name).sorted)

  def run(r: Run, cells: Int): Seq[Cell] = {
    val (layers, gbs) = (3, Experiments.defaultGbs)
    val random = mutable.Map.empty[(String, Int), Seq[Double]]
    val plan = for ((key, k) <- Workloads.rotation(Datasets.distDglKeys); algo <- algos) yield (key, k, algo)
    plan.take(cells).map { case (key, k, algo) =>
      r.cell(s"$key/$algo/$k") {
        val (_, cg) = r.graph(key)
        val mask = r.trainMask(key)
        val (res, q) = r.vertexRun(key, algo, k)
        val partTime = CostModel.partitioningTime(algo, res.cost)
        val s = r.sample(cg, res.part, mask, k, layers, gbs)
        val train = mask.count(identity).toLong
        val epochs = r.tracer.span("distdgl.epoch")(Tables.table5Grid.map(p => DistDglSim.epoch(s, p, k, gbs, train).epochTime))
        r.counts("sim.epochs") += epochs.size
        val base = random.getOrElseUpdate((key, k), epochs)
        val amort = r.tracer.span("amortize")(Amortization.averageEpochs(partTime, base.zip(epochs)))
        (
          s"$key $algo k=$k ec=${q.edgeCutRatio} vb=${q.vertexBalance} tvb=${q.trainVertexBalance} " +
            s"tpart=$partTime remote=${s.map(_.remoteInputVerts).sum} epoch=${epochs.sum} " +
            s"amortize=${amort.getOrElse("no")}",
          () =>
            Check.vertexCut(cg, res.part, mask, k, q) ++ Check.samples(s, k, gbs, layers) ++
              Check.positive("epoch", epochs),
          () => {
            val e = Experiments.vertexRun(r.spark, key, algo, k)
            Check.same("quality", q, e.quality) ++ Check.same("partTime", partTime, e.partTime) ++
              Check.same("assignment", res.part.toSeq, e.assign.toSeq) ++
              Check.same("samples", s, Experiments.samples(r.spark, key, algo, k, layers, gbs))
          },
        )
      }
    }
  }
}

/** The batch-size and depth sweep (Figs 21/26): a few k = 16 partitionings
  * of the dense analogs, each scored once and then sampled and simulated
  * for every (gbs, L) cell.
  */
object DistDglSweep extends Workload {
  val name = "distdgl-sweep"
  val scale = 0.3
  val cellsPerSecond = 2.0

  private val k = 16
  // Mini-batches sampled per cell. The first is the study's step, which the
  // simulation and the drift guard use; the rest are further steps of the
  // same epoch, checked alike. Several calls per cell keep one collector
  // pause from deciding a cell's time.
  private val steps = 4

  def run(r: Run, cells: Int): Seq[Cell] = {
    val parts = mutable.Map.empty[(String, String), (VertexPartitionResult, VertexCutQuality)]
    val random = mutable.Map.empty[(String, Int, Int), Double]
    val plan = for {
      key <- Seq("OR", "HW")
      algo <- Seq("Random", "KaHIP", "Metis")
      gbs <- Seq(16, 64, 256, 1024)
      layers <- Seq(2, 3, 4)
    } yield (key, algo, gbs, layers)
    plan.take(cells).map { case (key, algo, gbs, layers) =>
      r.cell(s"$key/$algo/$k/gbs$gbs/L$layers") {
        val (_, cg) = r.graph(key)
        val mask = r.trainMask(key)
        // the first cell on a partitioning makes, scores and checks it
        val fresh = !parts.contains((key, algo))
        val (res, q) = parts.getOrElseUpdate((key, algo), r.vertexRun(key, algo, k))
        val batches = (0 until steps).map(i => r.sample(cg, res.part, mask, k, layers, gbs, i))
        val s = batches.head
        val p = GnnParams(featureSize = 512, hidden = 64, layers = layers)
        val e = r.tracer.span("distdgl.epoch")(DistDglSim.epoch(s, p, k, gbs, mask.count(identity).toLong))
        r.counts("sim.epochs") += 1
        val base = random.getOrElseUpdate((key, gbs, layers), e.epochTime)
        (
          s"$key $algo k=$k gbs=$gbs L=$layers epoch=${e.epochTime} net=${e.totalNetworkBytes} " +
            s"remote=${e.remoteInputVerts} ivb=${e.inputVertexBalance} speedup=${base / e.epochTime} " +
            s"step_remote=${batches.map(_.map(_.remoteInputVerts).sum).mkString(",")}",
          () =>
            (if (fresh) Check.vertexCut(cg, res.part, mask, k, q) else Nil) ++
              batches.flatMap(Check.samples(_, k, gbs, layers)) ++ Check.positive("epoch", Seq(e.epochTime)),
          () => Check.same("samples", s, Experiments.samples(r.spark, key, algo, k, layers, gbs)),
        )
      }
    }
  }
}

package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.harness.Experiments

/** One benchmark run of one workload in a fresh JVM:
  *
  * {{{
  * Main --workload NAME --seed N --seconds S --trace 0|1 --out FILE [--setup-only 1]
  * }}}
  *
  * Writes a JSON record to FILE; `perfbench/run.py` launches the JVMs and
  * prints the result. Set-up runs from JVM start to a SparkSession that has
  * finished one trivial job; the timed region runs from there to the last
  * cell's output. Output checks, the seed-0 drift guard and the per-layer
  * accounting all come after it.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workloads.byName(opt("workload"))
    val seed = opt("seed").toLong
    val trace = opt("trace") == "1"

    // one core stays free for the JIT and GC threads, which steadies times
    val cores = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.range(1).count()
    val setupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val out = Paths.get(opt("out"))
    def write(record: Map[String, Any]): Unit =
      Files.write(out, Serialization.write(record)(DefaultFormats).getBytes(UTF_8))

    if (opt.get("setup-only").contains("1")) {
      spark.stop()
      write(Map("setup_s" -> setupS))
      return
    }

    val env = environment(spark, workload, seed)
    val tracer = new Tracer(trace, Some(spark.sparkContext))
    val run = new Run(spark, workload.scale, Seeds(seed), tracer)
    val gc0 = gcSeconds()
    val t0 = System.nanoTime()
    val cells = workload.run(run, workload.cellsFor(opt("seconds").toInt))
    val t1 = System.nanoTime()
    val wallS = (t1 - t0) / 1e9
    val gcS = gcSeconds() - gc0

    val failures = cells.map(c => c.id -> c.check()).filter(_._2.nonEmpty)
    val drift =
      if (seed != 0 || trace) Nil
      else {
        Experiments.scale = workload.scale
        cells.head.drift().map(m => s"${cells.head.id}: $m")
      }
    val peakRssMb = peakRss()
    spark.stop() // delivers every queued listener event before returning

    val times = cells.map(_.seconds)
    val tail = Stats.tail(times)
    val metrics =
      if (trace) PerLayer(tracer, run.counts.toMap, t0, t1, gcS)
      else
        Map(
          "wall_s" -> (wallS, "s"),
          "cell_p50_s" -> (Stats.median(times), "s"),
          "cell_tail_s" -> (tail.value, "s"),
          "peak_rss_mb" -> (peakRssMb, "MB"),
        )
    val rendered = cells.map(_.rendered)
    write(Map(
      "workload" -> workload.name,
      "seed" -> seed,
      "trace" -> trace,
      "setup_s" -> setupS,
      "wall_s" -> wallS,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
      "cell_tail" -> Map("percentile" -> tail.percentile, "beyond" -> tail.beyond, "cells" -> tail.samples),
      "attempted" -> cells.size,
      "failed" -> failures.size,
      "failures" -> failures.map { case (id, ms) => s"$id: ${ms.mkString("; ")}" },
      "drift_checked" -> (seed == 0 && !trace),
      "drift" -> drift,
      "digest" -> digest(rendered),
      "environment" -> env,
      "cells" -> cells.map(c => Map("id" -> c.id, "seconds" -> c.seconds, "output" -> c.rendered)),
      "spans" -> tracer.spans.map(s => Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_s" -> (s.start - t0) / 1e9, "end_s" -> (s.end - t0) / 1e9)),
    ))
  }

  /** Settings that change the numbers: the power-law analogs depend on
    * the core count through Spark's per-partition `rand`.
    */
  private def environment(spark: SparkSession, w: Workload, seed: Long): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "master" -> spark.sparkContext.master,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "leaf_node_default_parallelism" ->
        conf.getOption("spark.sql.leafNodeDefaultParallelism").getOrElse("unset (default parallelism)"),
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_join_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "java" -> System.getProperty("java.version"),
      "spark" -> spark.version,
      "scale" -> w.scale,
      "seed" -> seed,
      "seeds" -> { val s = Seeds(seed); Map("graph" -> s.graph, "partition" -> s.partition, "sampler" -> s.sampler) },
    )
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** The process's peak resident set (VmHWM), in MB. */
  private def peakRss(): Double =
    Files.readAllLines(Paths.get("/proc/self/status")).asScala
      .collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }
      .getOrElse(sys.error("no VmHWM in /proc/self/status"))

  private def digest(lines: Seq[String]): String =
    java.security.MessageDigest.getInstance("SHA-256")
      .digest(lines.mkString("\n").getBytes(UTF_8))
      .take(8).map(b => f"$b%02x").mkString
}

/** Per-layer metrics of a traced run: self time per layer, Spark work per
  * layer from the listener, and the counters the layers' results carry.
  */
object PerLayer {

  def apply(tracer: Tracer, counts: Map[String, Double], t0: Long, t1: Long, gcS: Double): Map[String, (Double, String)] = {
    val spans = tracer.spans
    val self = Spans.selfSeconds(spans)
    val work = tracer.listener.fold(Map.empty[Int, SparkWork])(_.bySpan)
    def seconds(names: Seq[String]): Double = spans.filter(s => names.contains(s.name)).map(s => self(s.id)).sum
    def spark(names: Seq[String]): SparkWork =
      spans.filter(s => names.contains(s.name)).map(s => work.getOrElse(s.id, SparkWork())).fold(SparkWork())(_ + _)
    def count(name: String): Double = counts.getOrElse(name, 0.0)

    val metricsLayers = Seq("metrics.edge_cut", "metrics.vertex_cut")
    val m = spark(metricsLayers)
    val partitionS = seconds(Layers.edgePartitions ++ Layers.vertexPartitions)
    val samplerS = seconds(Seq("sampler.step"))
    val layers = spans.filterNot(_.name == "cell")
    val wallS = (t1 - t0) / 1e9
    Map(
      "metrics.edge_cut_s" -> (seconds(Seq("metrics.edge_cut")), "s"),
      "metrics.vertex_cut_s" -> (seconds(Seq("metrics.vertex_cut")), "s"),
      "metrics.spark_jobs" -> (m.jobs.toDouble, "count"),
      "metrics.spark_tasks" -> (m.tasks.toDouble, "count"),
      "metrics.task_busy_s" -> (m.busyMs / 1e3, "s"),
      "metrics.shuffle_write_mb" -> (m.shuffleWriteBytes / 1e6, "MB"),
      "metrics.to_partition_ratio" -> (if (partitionS == 0) 0.0 else seconds(metricsLayers) / partitionS, "ratio"),
      "sampler.step_s" -> (samplerS, "s"),
      "sampler.sampled_edges" -> (count("sampler.sampled_edges"), "count"),
      "sampler.edges_per_s" -> (if (samplerS == 0) 0.0 else count("sampler.sampled_edges") / samplerS, "1/s"),
      "partition.edge_s" -> (seconds(Layers.edgePartitions), "s"),
      "partition.vertex_s" -> (seconds(Layers.vertexPartitions), "s"),
      "partition.edges_streamed" -> (count("partition.edges_streamed"), "count"),
      "partition.score_evals" -> (count("partition.score_evals"), "count"),
      "partition.heavy_ops" -> (count("partition.heavy_ops"), "count"),
      "bridge.edge_df_s" -> (seconds(Seq("bridge.edge_df")), "s"),
      "bridge.vertex_df_s" -> (seconds(Seq("bridge.vertex_df")), "s"),
      "bridge.spark_jobs" -> (spark(Seq("bridge.edge_df", "bridge.vertex_df")).jobs.toDouble, "count"),
      "graph.gen_s" -> (seconds(Seq("graph.gen")), "s"),
      "graph.gen_spark_jobs" -> (spark(Seq("graph.gen")).jobs.toDouble, "count"),
      "graph.edges" -> (count("graph.edges"), "count"),
      "graph.compact_s" -> (seconds(Seq("graph.compact")), "s"),
      "graph.train_mask_s" -> (seconds(Seq("graph.train_mask")), "s"),
      "distgnn.epoch_s" -> (seconds(Seq("distgnn.epoch")), "s"),
      "distdgl.epoch_s" -> (seconds(Seq("distdgl.epoch")), "s"),
      "sim.epochs" -> (count("sim.epochs"), "count"),
      "amortize_s" -> (seconds(Seq("amortize")), "s"),
      "jvm.gc_s" -> (gcS, "s"),
      "spark.jobs" -> (work.values.map(_.jobs).sum.toDouble, "count"),
      "other_s" -> (wallS - Spans.covered(layers, t0, t1) / 1e9, "s"),
    ) ++ (Layers.edgePartitions ++ Layers.vertexPartitions).map(n => s"${n}_s" -> (seconds(Seq(n)), "s"))
  }
}

package repro.perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One timed call into a layer; `parent` is the enclosing span's id, or -1.
  * Times are `System.nanoTime` readings.
  */
final case class Span(id: Int, name: String, parent: Int, start: Long, end: Long)

/** Spark work started while a span was the innermost open one. */
final case class SparkWork(jobs: Long = 0, tasks: Long = 0, busyMs: Long = 0, shuffleWriteBytes: Long = 0) {
  def +(o: SparkWork): SparkWork =
    SparkWork(jobs + o.jobs, tasks + o.tasks, busyMs + o.busyMs, shuffleWriteBytes + o.shuffleWriteBytes)
}

/** Spans recorded from the benchmark's side of every layer call, kept in
  * memory until the run ends. A disabled tracer only runs the bodies, so
  * the untraced run pays nothing for it.
  */
final class Tracer(val enabled: Boolean, sc: Option[SparkContext]) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[(Int, Long)] // (id, start), innermost first
  private var nextId = 0

  /** Counts Spark jobs, tasks and shuffle bytes per span (traced runs only). */
  val listener: Option[SpanListener] =
    if (!enabled) None
    else sc.map { c => val l = new SpanListener; c.addSparkListener(l); l }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      sc.foreach(_.setLocalProperty(SpanListener.Key, id.toString))
      open = (id, System.nanoTime()) :: open
      try body
      finally {
        val end = System.nanoTime()
        done += Span(id, name, parent, open.head._2, end)
        open = open.tail
        sc.foreach(_.setLocalProperty(SpanListener.Key, if (parent < 0) null else parent.toString))
      }
    }

  def spans: Seq[Span] = done.toSeq
}

object Spans {

  /** Nanoseconds of `[from, to)` covered by the union of `spans`. */
  def covered(spans: Seq[Span], from: Long, to: Long): Long = {
    var total = 0L
    var reach = from
    for (s <- spans.sortBy(_.start)) {
      val a = math.max(s.start, reach)
      val b = math.min(s.end, to)
      if (b > a) { total += b - a; reach = b }
    }
    total
  }

  /** Self time of every span in seconds: its duration minus the part of
    * its interval that its child spans cover.
    */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      s.id -> (s.end - s.start - covered(children.getOrElse(s.id, Nil), s.start, s.end)) / 1e9
    }.toMap
  }
}

/** Attributes every Spark job to the span that was innermost when the job
  * started (a local property set by [[Tracer.span]]), and every task to its
  * stage's job. Events arrive on Spark's listener thread; read [[bySpan]]
  * after `SparkContext.stop`, which delivers all queued events first.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val work = mutable.Map.empty[Int, SparkWork]

  private def add(span: Int, w: SparkWork): Unit =
    work(span) = work.getOrElse(span, SparkWork()) + w

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties)
      .flatMap(p => Option(p.getProperty(SpanListener.Key)))
      .fold(-1)(_.toInt)
    e.stageIds.foreach(stageSpan(_) = span)
    add(span, SparkWork(jobs = 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = Option(e.taskMetrics)
    add(
      stageSpan.getOrElse(e.stageId, -1),
      SparkWork(
        tasks = 1,
        busyMs = m.fold(0L)(_.executorRunTime),
        shuffleWriteBytes = m.fold(0L)(_.shuffleWriteMetrics.bytesWritten),
      ),
    )
  }

  def bySpan: Map[Int, SparkWork] = synchronized(work.toMap)
}

object SpanListener {
  val Key = "repro.perfbench.span"
}

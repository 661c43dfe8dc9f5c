package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}

/** Spark work attributed to one span (its own jobs, not its children's). */
final class SparkWork {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var sparkMs = 0.0       // summed job wall time (jobs of one thread run back to back)
  var shuffleBytes = 0L   // shuffle bytes written
  var taskMs = 0L         // summed executor run time of the tasks
  var rowsScanned = 0L    // rows read out of cached Datasets (InMemoryTableScan)
  val jobTimes = mutable.ArrayBuffer[(String, Double)]() // (call site, ms) per job

  def add(o: SparkWork): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; sparkMs += o.sparkMs
    shuffleBytes += o.shuffleBytes; taskMs += o.taskMs; rowsScanned += o.rowsScanned
    jobTimes ++= o.jobTimes
  }
}

/** Tallies Spark jobs, stages, tasks, shuffle bytes and cached-row scans
  * per span. The span id travels as a thread-local Spark property, so every
  * job submitted inside a span carries it; events are handled on the
  * listener-bus thread and read only after [[SparkCounters.drain]].
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val bySpan = mutable.Map[Int, SparkWork]()
  private val stageSpan = mutable.Map[Int, Int]()
  private val jobStart = mutable.Map[Int, (Int, Long, String)]()
  private val scanAccumulators = mutable.Set[Long]()

  private def work(span: Int): SparkWork = bySpan.getOrElseUpdate(span, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val span = props.flatMap(p => Option(p.getProperty(SparkCounters.SpanKey))).map(_.toInt).getOrElse(-1)
    // the job's result stage is named after the action's call site
    val site = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
    jobStart(e.jobId) = (span, e.time, site)
    e.stageIds.foreach(stageSpan(_) = span)
    work(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (span, t0, site) =>
      val ms = (e.time - t0).toDouble
      work(span).sparkMs += ms
      work(span).jobTimes += ((site, ms))
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).foreach(work(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { span =>
      val w = work(span)
      w.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        w.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        w.taskMs += m.executorRunTime
      }
      e.taskInfo.accumulables.foreach { a =>
        if (scanAccumulators.contains(a.id)) a.update.foreach {
          case n: Long => w.rowsScanned += n
          case other   => w.rowsScanned += other.toString.toLong
        }
      }
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart          => collectScans(s.sparkPlanInfo)
      case u: SparkListenerSQLAdaptiveExecutionUpdate => collectScans(u.sparkPlanInfo)
      case _ =>
    }
  }

  private def collectScans(p: SparkPlanInfo): Unit = {
    if (p.nodeName == "InMemoryTableScan")
      p.metrics.filter(_.name == "number of output rows").foreach(scanAccumulators += _.accumulatorId)
    p.children.foreach(collectScans)
  }

  def drain(): Unit = ListenerBusAccess.drain(sc)

  def of(span: Int): SparkWork = synchronized(bySpan.getOrElse(span, new SparkWork))
}

object SparkCounters {
  val SpanKey = "perfbench.span"
}

/** JVM garbage-collector totals across all collectors. */
object Gc {
  def snapshot(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }
}

/** One timed interval around a call into a layer. `op` is the id of the
  * root span of the operation it belongs to; `label` names that operation
  * (a query id, "setup", "ingest").
  */
final class Span(val id: Int, val name: String, val parent: Int, val op: Int, val label: String) {
  var startNs = 0L
  var endNs = 0L
  var gcMs = 0L
  var gcCount = 0L
  val attrs = mutable.LinkedHashMap[String, Double]()
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. Spans nest by call structure on the one driver
  * thread; nothing is written until the run ends.
  */
final class Tracer(sc: SparkContext) {
  val counters = new SparkCounters(sc)
  sc.addSparkListener(counters)

  private val all = mutable.ArrayBuffer[Span]()
  private var stack: List[Span] = Nil
  private val originNs = System.nanoTime() // span times are written relative to it

  def spans: Seq[Span] = all.toSeq

  /** Runs `f` inside a span. A root span starts a new operation. */
  def span[A](name: String, label: String = "")(f: => A): A = {
    val parent = stack.headOption
    val id = all.size
    val s = new Span(id, name, parent.map(_.id).getOrElse(-1),
      parent.map(_.op).getOrElse(id), parent.map(_.label).getOrElse(label))
    all += s
    stack = s :: stack
    sc.setLocalProperty(SparkCounters.SpanKey, id.toString)
    val (gc0, n0) = Gc.snapshot()
    s.startNs = System.nanoTime()
    try f
    finally {
      s.endNs = System.nanoTime()
      val (gc1, n1) = Gc.snapshot()
      s.gcMs = gc1 - gc0
      s.gcCount = n1 - n0
      stack = stack.tail
      sc.setLocalProperty(SparkCounters.SpanKey, parent.map(_.id.toString).orNull)
    }
  }

  /** Attaches a counter to the innermost open span. */
  def attr(key: String, value: Double): Unit = stack.head.attrs(key) = value

  def children(s: Span): Seq[Span] = all.filter(_.parent == s.id).toSeq

  /** Spark work of a span including its descendants. */
  def inclusive(s: Span): SparkWork = {
    val w = new SparkWork
    w.add(counters.of(s.id))
    children(s).foreach(c => w.add(inclusive(c)))
    w
  }

  /** Share of a span's wall time covered by its direct children. */
  def coverage(s: Span): Double = {
    val kids = children(s)
    if (kids.isEmpty || s.ms <= 0) 1.0 else kids.map(_.ms).sum / s.ms
  }

  def close(): Unit = {
    counters.drain()
    sc.removeSparkListener(counters)
  }

  def toJson: String = Json.arr(all.toSeq.map { s =>
    val w = counters.of(s.id)
    Json.obj(Seq(
      "id" -> Json.num(s.id), "name" -> Json.str(s.name), "parent" -> Json.num(s.parent),
      "op" -> Json.num(s.op), "label" -> Json.str(s.label),
      "start_ns" -> Json.num((s.startNs - originNs).toDouble),
      "end_ns" -> Json.num((s.endNs - originNs).toDouble),
      "ms" -> Json.num(s.ms), "gc_ms" -> Json.num(s.gcMs.toDouble),
      "gc_count" -> Json.num(s.gcCount.toDouble), "jobs" -> Json.num(w.jobs.toDouble),
      "stages" -> Json.num(w.stages.toDouble), "tasks" -> Json.num(w.tasks.toDouble),
      "spark_ms" -> Json.num(w.sparkMs), "shuffle_bytes" -> Json.num(w.shuffleBytes.toDouble),
      "task_ms" -> Json.num(w.taskMs.toDouble), "rows_scanned" -> Json.num(w.rowsScanned.toDouble),
      "attrs" -> Json.obj(s.attrs.toSeq.map { case (k, v) => k -> Json.num(v) })))
  })
}

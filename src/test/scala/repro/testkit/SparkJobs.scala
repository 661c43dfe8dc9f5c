package repro.testkit

import scala.collection.mutable
import org.apache.spark.{SparkContext, TestListenerBus}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work submitted by one block of code. */
final case class SparkWork(jobs: Int, tasks: Int, shuffleWriteBytes: Long)

/** Counts the Spark jobs a block of code runs, with their tasks and the
  * shuffle bytes they write. Jobs are attributed through a thread-local
  * Spark property, so only jobs submitted by the calling thread inside the
  * block count.
  */
object SparkJobs {

  private val Key = "repro.testkit.sparkJobs"

  def count[A](sc: SparkContext)(f: => A): (A, SparkWork) = {
    val token = java.util.UUID.randomUUID().toString
    val listener = new Listener(token)
    val previous = sc.getLocalProperty(Key)
    sc.addSparkListener(listener)
    sc.setLocalProperty(Key, token)
    try {
      val out = f
      TestListenerBus.drain(sc)
      (out, listener.work)
    } finally {
      sc.setLocalProperty(Key, previous)
      sc.removeSparkListener(listener)
    }
  }

  private final class Listener(token: String) extends SparkListener {
    private val stages = mutable.Set[Int]()
    private var jobs = 0
    private var tasks = 0
    private var shuffleWriteBytes = 0L

    def work: SparkWork = synchronized(SparkWork(jobs, tasks, shuffleWriteBytes))

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (Option(e.properties).exists(p => p.getProperty(Key) == token)) {
        jobs += 1
        stages ++= e.stageIds
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (stages.contains(e.stageId)) {
        tasks += 1
        if (e.taskMetrics != null) shuffleWriteBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
  }
}

package repro.testkit

import scala.collection.mutable
import org.apache.spark.{SparkContext, TestListenerBus}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark work submitted by one block of code: each job's task count, in
  * job start order, and the shuffle bytes written.
  */
final case class SparkWork(jobTasks: Seq[Int], shuffleWriteBytes: Long) {
  def jobs: Int = jobTasks.size
  def tasks: Int = jobTasks.sum
}

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
    private val jobOfStage = mutable.Map[Int, Int]()
    private val jobTasks = mutable.ArrayBuffer[Int]()
    private var shuffleWriteBytes = 0L

    def work: SparkWork = synchronized(SparkWork(jobTasks.toList, shuffleWriteBytes))

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (Option(e.properties).exists(p => p.getProperty(Key) == token)) {
        e.stageIds.foreach(jobOfStage(_) = jobTasks.size)
        jobTasks += 0
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      jobOfStage.get(e.stageId).foreach { job =>
        jobTasks(job) += 1
        if (e.taskMetrics != null) shuffleWriteBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
  }
}

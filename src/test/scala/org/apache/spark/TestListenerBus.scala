package org.apache.spark

/** Waits until every posted listener event has been delivered, so a test
  * listener's counters are complete before they are read. The bus is
  * `private[spark]`, hence this file's package.
  */
object TestListenerBus {
  def drain(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}

package org.apache.spark

/** Waits until every posted listener event has been delivered, so the
  * benchmark's listener counters are complete before they are read. The
  * bus is `private[spark]`, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}

package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private.
  * The tracer calls it before reading its tallies, so every event of a
  * finished job has been delivered.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

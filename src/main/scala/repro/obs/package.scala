package repro

/** Observability helpers shared by the pipeline stages. */
package object obs {

  /** Run ``body``; return its result and its wall-clock time in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

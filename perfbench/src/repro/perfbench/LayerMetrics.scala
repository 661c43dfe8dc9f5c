package repro.perfbench

/** Per-layer metrics of a traced run, read from its spans.
  *
  * A span name is a layer boundary. Times are the p50 over the span's
  * occurrences; counts are the median per operation label (a query id, or
  * one build), averaged over the labels, so they do not depend on how many
  * operations fit in the run. Build spans of the set-up count only when the
  * timed loop built nothing itself. A layer the workload never calls reads
  * 0.
  */
final class LayerMetrics(t: Tracer, kind: OpKind, tracedMs: Seq[Double], untracedMs: Seq[Double],
                         hnswRecall: Seq[Double]) {

  private val rootName = kind match {
    case OpKind.Ingest => "core.ingest"
    case _             => "core.query"
  }

  private def occurrences(name: String): Seq[Span] = {
    val all = t.spans.filter(_.name == name)
    val timed = all.filter(_.label != "setup")
    if (timed.nonEmpty) timed else all
  }

  private def p50(name: String)(f: Span => Double): Double = {
    val xs = occurrences(name)
    if (xs.isEmpty) 0.0 else Stats.median(xs.map(f))
  }

  private def perOp(name: String)(f: Span => Double): Double = {
    val byLabel = occurrences(name).groupBy(_.label).values.toSeq
    Stats.mean(byLabel.map(g => Stats.median(g.map(f))))
  }

  private def ms(name: String): Double = p50(name)(_.ms)
  private def work(s: Span): SparkWork = t.inclusive(s)
  private def attr(key: String)(s: Span): Double = s.attrs.getOrElse(key, 0.0)

  private def selfMs(s: Span): Double = s.ms - t.children(s).map(_.ms).sum

  /** Median share of each root span's wall time covered by its children. */
  private def coverageOf(name: String): Option[Double] = {
    val xs = occurrences(name)
    if (xs.isEmpty) None else Some(Stats.median(xs.map(t.coverage)))
  }

  private val roots = Seq(rootName, "core.build").distinct

  def coverageProblems: Seq[String] = roots.flatMap { n =>
    coverageOf(n).filter(_ < PerfBench.MinCoverage).map(c =>
      f"child spans cover $c%.3f of $n wall time, below ${PerfBench.MinCoverage}")
  }

  private def mb(name: String): Double = perOp(name)(attr("storage_mb"))

  def all: Seq[(String, Double, String)] = {
    val traced = if (tracedMs.isEmpty) 0.0 else Stats.median(tracedMs)
    val untraced = if (untracedMs.isEmpty) 0.0 else Stats.median(untracedMs)
    val pqIters = occurrences("pq").map { s =>
      val it = t.counters.of(s.id).jobTimes.collect { case (site, ms) if site.contains("treeAggregate") => ms }
      if (it.isEmpty) 0.0 else Stats.median(it.toSeq)
    }
    val cells = perOp("index.imi_build")(attr("cells"))
    val frames = perOp("rerank")(attr("frames"))
    val framesScanned = perOp("rerank")(work(_).rowsScanned.toDouble)
    Seq(
      ("op.traced_ms", traced, "ms"),
      ("op.untraced_ms", untraced, "ms"),
      ("trace.overhead_ms", traced - untraced, "ms"),
      ("trace.coverage", coverageOf(rootName).getOrElse(0.0), "ratio"),
      ("core.query.self_ms", p50("core.query")(selfMs), "ms"),
      ("jvm.gc_ms", Stats.mean(occurrences(rootName).map(_.gcMs.toDouble)), "ms"),
      ("encoder.ms", ms("encoder"), "ms"),
      ("index.ann.ms", ms("index.ann"), "ms"),
      ("index.ann.spark_ms", p50("index.ann")(work(_).sparkMs), "ms"),
      ("index.ann.driver_ms", p50("index.ann")(s => s.ms - work(s).sparkMs), "ms"),
      ("index.ann.jobs", perOp("index.ann")(work(_).jobs.toDouble), "count"),
      ("index.ann.stages", perOp("index.ann")(work(_).stages.toDouble), "count"),
      ("index.ann.tasks", perOp("index.ann")(work(_).tasks.toDouble), "count"),
      ("index.ann.shuffle_bytes", perOp("index.ann")(work(_).shuffleBytes.toDouble), "bytes"),
      ("index.ann.rows_scanned", perOp("index.ann")(work(_).rowsScanned.toDouble), "count"),
      ("index.ann.cells_scored", perOp("index.ann")(attr("cells_scored")), "count"),
      ("index.ann.cells_selected", perOp("index.ann")(attr("cells_selected")), "count"),
      ("index.ann.candidates", perOp("index.ann")(attr("candidates")), "count"),
      ("index.ann.rescored", perOp("index.ann")(attr("rescored")), "count"),
      ("index.ann.yield", perOp("index.ann")(attr("yield")), "ratio"),
      ("index.meta.ms", ms("index.meta"), "ms"),
      ("index.meta.spark_ms", p50("index.meta")(work(_).sparkMs), "ms"),
      ("index.meta.jobs", perOp("index.meta")(work(_).jobs.toDouble), "count"),
      ("index.meta.shuffle_bytes", perOp("index.meta")(work(_).shuffleBytes.toDouble), "bytes"),
      ("index.meta.rows_scanned", perOp("index.meta")(work(_).rowsScanned.toDouble), "count"),
      ("index.bf.ms", ms("index.bf"), "ms"),
      ("rerank.ms", ms("rerank"), "ms"),
      ("rerank.spark_ms", p50("rerank")(work(_).sparkMs), "ms"),
      ("rerank.jobs", perOp("rerank")(work(_).jobs.toDouble), "count"),
      ("rerank.tasks", perOp("rerank")(work(_).tasks.toDouble), "count"),
      ("rerank.frames", frames, "count"),
      ("rerank.frames_scanned", framesScanned, "count"),
      ("rerank.yield", if (framesScanned > 0) frames / framesScanned else 0.0, "ratio"),
      ("rerank.image_tokens", perOp("rerank")(attr("image_tokens")), "count"),
      ("build.ms", ms("core.build"), "ms"),
      ("build.jobs", perOp("core.build")(work(_).jobs.toDouble), "count"),
      ("build.shuffle_bytes", perOp("core.build")(work(_).shuffleBytes.toDouble), "bytes"),
      ("build.task_ms", p50("core.build")(work(_).taskMs.toDouble), "ms"),
      ("video.ms", ms("video"), "ms"),
      ("video.jobs", perOp("video")(work(_).jobs.toDouble), "count"),
      ("video.keyframe_ratio", perOp("video")(s => attr("keyframes")(s) / attr("raw_frames")(s).max(1.0)), "ratio"),
      ("vit.ms", ms("vit"), "ms"),
      ("vit.patches", perOp("vit")(attr("patches")), "count"),
      ("pq.ms", ms("pq"), "ms"),
      ("pq.iter_ms", if (pqIters.isEmpty) 0.0 else Stats.median(pqIters), "ms"),
      ("pq.jobs", perOp("pq")(work(_).jobs.toDouble), "count"),
      ("index.imi_build.ms", ms("index.imi_build"), "ms"),
      ("index.imi_build.shuffle_bytes", perOp("index.imi_build")(work(_).shuffleBytes.toDouble), "bytes"),
      ("index.cells", cells, "count"),
      ("index.vectors_per_cell", if (cells > 0) perOp("index.imi_build")(attr("vectors")) / cells else 0.0, "ratio"),
      ("index.meta_build.ms", ms("index.meta_build"), "ms"),
      ("index.hnsw_build.ms", ms("index.hnsw_build"), "ms"),
      ("index.hnsw_build.dist_comps", perOp("index.hnsw_build")(attr("dist_comps")), "count"),
      ("index.hnsw.recall", Stats.mean(hnswRecall), "ratio"),
      ("storage.frames_mb", mb("video"), "MB"),
      ("storage.patches_mb", mb("vit"), "MB"),
      ("storage.entries_mb", mb("index.imi_build"), "MB"),
      ("storage.meta_mb", mb("index.meta_build"), "MB"))
  }
}

package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.encoder.TextEncoder
import repro.eval.{Detection, Metrics}
import repro.index._
import repro.jobs.JobSession

/** Wall-clock benchmark of LOVO.
  *
  * {{{
  * PerfBench --workload <fast-city|twostage-anet|ingest-city> --seed <n>
  *           --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * One driver thread runs a closed loop (one client) of the workload's
  * public operation for `--seconds`, after a set-up of session start plus
  * `Lovo.build`. Every answer is checked against the run's first answer to
  * the same input. With `--trace 0` the last stdout line carries the
  * end-to-end metrics; with `--trace 1` the loop alternates traced and
  * untraced operations and the line carries the per-layer metrics. See
  * perfbench/README.md for the metric definitions.
  */
object PerfBench {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  /** A traced run times at least this many operations of each kind. */
  val MinTracedOps = 1
  /** Lowest acceptable IVF-PQ recall@k against the exact scan, per query. */
  val MinRecall = 0.75
  /** Share of a root span's wall time its child spans must cover. */
  val MinCoverage = 0.95

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      kv.getOrElse("out", "."))
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = parseArgs(argv)
    val wl = BenchWorkload(args.workload, args.seed)
    val spark = JobSession.spark(s"perfbench-${wl.name}")
    val sessionS = (System.nanoTime() - t0) / 1e9
    val code =
      try new BenchRun(spark, wl, args, t0, sessionS).execute()
      finally spark.stop()
    sys.exit(code)
  }
}

/** One benchmark run: set-up, reference answers, timed loop, report. */
final class BenchRun(spark: SparkSession, wl: BenchWorkload, args: PerfBench.Args, t0: Long,
                     sessionS: Double) {
  import PerfBench._

  private val tracer = if (args.trace) Some(new Tracer(spark.sparkContext)) else None
  private val traced = tracer.map(new TracedLovo(_, spark))

  private var attempted = 0L
  private var failed = 0L
  private val failures = mutable.ArrayBuffer[String]() // why operations failed
  private val checks = mutable.ArrayBuffer[String]() // failed run-level checks
  private val untracedMs = mutable.ArrayBuffer[Double]()
  private val tracedMs = mutable.ArrayBuffer[Double]()

  private def elapsedS(from: Long): Double = (System.nanoTime() - from) / 1e9

  /** Times `op` and files its wall time as traced or untraced. */
  private def timed[A](useTrace: Boolean)(op: => A): A = {
    val t1 = System.nanoTime()
    val out = op
    (if (useTrace) tracedMs else untracedMs) += (System.nanoTime() - t1) / 1e6
    out
  }

  private def span[A](name: String, label: String)(f: => A): A =
    tracer.fold(f)(_.span(name, label)(f))

  private def attempt[A](what: String)(f: => A): Option[A] = {
    attempted += 1
    Try(f) match {
      case Success(v) => Some(v)
      case Failure(e) => fail(Seq(s"$what threw ${e.getClass.getSimpleName}: ${e.getMessage}")); None
    }
  }

  /** Counts one failed operation when it has any problem. */
  private def fail(problems: Seq[String]): Unit =
    if (problems.nonEmpty) { failed += 1; failures ++= problems }

  private def build(label: String): LovoBuild = traced match {
    case Some(tl) => tl.build(wl.dataset, wl.specs, wl.cfg, label)
    case None     => Lovo.build(spark, wl.dataset, wl.specs, wl.cfg)
  }

  private def kFor(b: LovoBuild, q: BenchQuery): Int =
    math.min(q.k.toLong, b.counts.entries).toInt.max(1)

  def execute(): Int = {
    val storage0 = Storage.cachedMb(spark)
    val build0 = build("setup")
    val setupS = elapsedS(t0)

    // ---- reference work, outside set-up and the timed loop ----
    val bf = mutable.Map[String, Seq[SearchHit]]()
    val first = mutable.Map[String, Seq[Candidate]]()
    val recall = mutable.LinkedHashMap[String, Double]()
    val avep = mutable.LinkedHashMap[String, Double]()
    for (q <- wl.queries) {
      val parsed = q.parsed
      val k = kFor(build0, q)
      val gt = Metrics.groundTruth(build0.frames, parsed.tokens)
      bf(q.spec.id) = span("index.bf", q.spec.id) {
        BruteForce.search(build0.index, TextEncoder.fastEmbedding(parsed), k)._1
      }
      val exact = bf(q.spec.id).map(_.patchId).toSet
      def checkRecall(ids: Seq[Long]): Unit = {
        val r = ids.count(exact.contains).toDouble / exact.size.max(1)
        recall(q.spec.id) = r
        if (r < MinRecall) checks += f"${q.spec.id} IVF-PQ recall@$k $r%.3f < $MinRecall"
      }
      val answer = wl.kind match {
        case OpKind.TwoStage =>
          // the IVF-PQ hits alone; the query's answer carries no patch ids
          val c = build0.cfg
          checkRecall(AnnSearch.search(build0.index, TextEncoder.fastEmbedding(parsed), k, c.topA,
            c.rescoreFactor, c.scanFraction)._1.map(_.patchId))
          attempt(s"${q.spec.id} query")(Lovo.query(build0, parsed, k).candidates)
        case _ =>
          attempt(s"${q.spec.id} fast search")(Lovo.fastSearch(build0, parsed, k)._1)
            .map { a => checkRecall(a.map(_.patchId)); a }
      }
      answer.foreach { a =>
        fail(answerProblems(q.spec.id, a, k, None))
        first(q.spec.id) = a
        avep(q.spec.id) = Metrics.averagePrecision(a.map(c => Detection(c.frameId, c.score, c.box)), gt)
      }
    }
    val cachedMb = Storage.cachedMb(spark)

    // Ingest: the set-up build's HNSW graph is the reference every timed
    // rebuild must reproduce; building it here also warms the HNSW code.
    val hnswRef = mutable.Map[String, Seq[SearchHit]]()
    var hnswComps = -1L
    val hnswRecall = mutable.ArrayBuffer[Double]()
    def hnswAnswers(g: HnswIndex, b: LovoBuild): Seq[(BenchQuery, Seq[SearchHit])] =
      wl.queries.map { q =>
        val k = kFor(b, q)
        q -> Hnsw.search(g, TextEncoder.fastEmbedding(q.parsed), k, math.max(b.cfg.hnswEfSearch, k))._1
      }
    if (wl.kind == OpKind.Ingest) {
      val g0 = traced.fold(Lovo.buildHnsw(build0))(_.buildHnsw(build0, "setup"))
      hnswComps = g0.distComps
      for ((q, hits) <- hnswAnswers(g0, build0)) {
        hnswRef(q.spec.id) = hits
        val exact = bf(q.spec.id).map(_.patchId).toSet
        hnswRecall += hits.count(h => exact.contains(h.patchId)).toDouble / exact.size.max(1)
      }
    }

    /** The i-th query of the round robin. */
    def queryOp(i: Int, useTrace: Boolean): Unit = {
      val q = wl.queries(i % wl.queries.size)
      val k = kFor(build0, q)
      val out = timed(useTrace)(attempt(s"${q.spec.id} op $i") {
        (wl.kind, traced) match {
          case (OpKind.FastSearch, Some(tl)) if useTrace =>
            tracer.get.span("core.query", q.spec.id)(tl.fastSearch(build0, q.spec.text, k)._2)
          case (_, Some(tl)) if useTrace =>
            tracer.get.span("core.query", q.spec.id)(tl.query(build0, q.spec.text, k))
          case (OpKind.FastSearch, _) =>
            Lovo.fastSearch(build0, TextEncoder.parse(q.spec.text), k)._1
          case _ =>
            Lovo.query(build0, TextEncoder.parse(q.spec.text), k).candidates
        }
      })
      out.foreach(a => fail(answerProblems(q.spec.id, a, k, first.get(q.spec.id))))
    }

    // ---- timed closed loop ----
    var prev = build0
    val loopStart = System.nanoTime()
    var i = 0
    // A traced run needs at least one operation of each kind.
    def more: Boolean =
      i == 0 || elapsedS(loopStart) < args.seconds ||
        (args.trace && (tracedMs.size < MinTracedOps || untracedMs.size < MinTracedOps))
    while (more) {
      val useTrace = args.trace && i % 2 == 0
      wl.kind match {
        case OpKind.Ingest =>
          // Cache hygiene: drop the previous build before timing the next.
          Seq(prev.frames, prev.patches, prev.index.entries, prev.meta).foreach(_.unpersist(true))
          val left = Storage.cachedMb(spark)
          if (math.abs(left - storage0) > 1e-9)
            checks += f"storage at $left%.3f MB after unpersist, $storage0%.3f MB before the first build"
          val out = timed(useTrace)(attempt(s"ingest $i") {
            if (useTrace) tracer.get.span("core.ingest", "ingest") {
              val b = traced.get.build(wl.dataset, wl.specs, wl.cfg, "ingest")
              (b, traced.get.buildHnsw(b))
            } else {
              val b = Lovo.build(spark, wl.dataset, wl.specs, wl.cfg)
              (b, Lovo.buildHnsw(b))
            }
          })
          out.foreach { case (b, g) =>
            prev = b
            val problems = mutable.ArrayBuffer[String]()
            problems ++= buildProblems(i, b, build0)
            if (g.distComps != hnswComps)
              problems += s"ingest $i: HNSW build made ${g.distComps} distance computations, first build $hnswComps"
            for ((q, hits) <- hnswAnswers(g, b) if hnswRef(q.spec.id) != hits)
              problems += s"ingest $i: HNSW answer to ${q.spec.id} differs from the first build's"
            fail(problems.toSeq)
          }
        case _ =>
          queryOp(i, useTrace)
      }
      i += 1
    }
    val loopS = elapsedS(loopStart)
    tracer.foreach(_.close())

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) {
        val ms = untracedMs.toSeq
        Seq(
          ("op_p50_ms", Stats.median(ms), "ms"),
          ("ops_per_s", ms.size / loopS, "1/s"),
          ("recall_at_k", Stats.mean(recall.values.toSeq), "ratio"),
          ("avep", Stats.mean(avep.values.toSeq), "ratio"),
          ("setup_s", setupS, "s"),
          ("cached_mb", cachedMb, "MB"))
      } else {
        val layers = new LayerMetrics(tracer.get, wl.kind, tracedMs.toSeq, untracedMs.toSeq,
          hnswRecall.toSeq)
        checks ++= layers.coverageProblems
        layers.all
      }

    val correct = failed == 0 && checks.isEmpty && attempted > 0
    (failures ++ checks).take(20).foreach(f => System.err.println(s"perfbench: $f"))

    val info = Json.obj(Seq(
      "workload" -> Json.str(wl.name), "seed" -> Json.num(args.seed.toDouble),
      "seconds" -> Json.num(args.seconds), "trace" -> Json.num(if (args.trace) 1 else 0),
      "dataset" -> Json.str(wl.dataset.name), "scale" -> Json.num(wl.scale),
      "raw_frames" -> Json.num(build0.counts.rawFrames.toDouble),
      "keyframes" -> Json.num(build0.counts.keyFrames.toDouble),
      "vectors" -> Json.num(build0.counts.entries.toDouble),
      "cells" -> Json.num(build0.index.nCells.toDouble),
      "queries" -> Json.arr(wl.queries.map(q => Json.obj(Seq(
        "id" -> Json.str(q.spec.id), "k" -> Json.num(kFor(build0, q)),
        "recall_at_k" -> Json.num(recall.getOrElse(q.spec.id, Double.NaN)),
        "avep" -> Json.num(avep.getOrElse(q.spec.id, Double.NaN)))))),
      "ops_untraced" -> Json.num(untracedMs.size), "ops_traced" -> Json.num(tracedMs.size),
      "op_p90_ms" -> Json.num(if (untracedMs.isEmpty) Double.NaN else Stats.quantile(untracedMs.toSeq, 0.9)),
      "session_s" -> Json.num(sessionS), "setup_build_s" -> Json.num(setupS - sessionS),
      "cores" -> Json.num(Runtime.getRuntime.availableProcessors()),
      "master" -> Json.str(spark.sparkContext.master),
      "spark" -> Json.str(spark.version),
      "jvm" -> Json.str(System.getProperty("java.vm.name") + " " + System.getProperty("java.version")),
      "heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)),
      "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
      "broadcast_threshold" -> Json.str(spark.conf.get("spark.sql.autoBroadcastJoinThreshold")),
      "failures" -> Json.arr((failures ++ checks).take(20).map(Json.str).toSeq)))
    val result = Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> Json.num(attempted.toDouble),
      "failed" -> Json.num(failed.toDouble),
      "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      })))

    val base = s"${wl.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val dir = Paths.get(args.out)
    Files.createDirectories(dir)
    def write(name: String, text: String): Unit =
      Files.write(dir.resolve(name), text.getBytes(StandardCharsets.UTF_8))
    write(s"$base.json", Json.obj(Seq("info" -> info, "result" -> result,
      "untraced_ms" -> Json.arr(untracedMs.toSeq.map(Json.num)),
      "traced_ms" -> Json.arr(tracedMs.toSeq.map(Json.num)))) + "\n")
    tracer.foreach(t => write(s"$base-spans.json", t.toJson + "\n"))

    println(info)
    println(result)
    if (correct) 0 else 1
  }

  /** A query answer must hold min(k, entries) hits in descending score
    * order and equal the run's first answer to the same query.
    */
  private def answerProblems(id: String, a: Seq[Candidate], k: Int,
                             ref: Option[Seq[Candidate]]): Seq[String] =
    if (a.size < k) Seq(s"$id: ${a.size} hits, expected $k")
    else if (a.zip(a.drop(1)).exists { case (x, y) => x.score < y.score })
      Seq(s"$id: answer not in descending score order")
    else if (ref.exists(_ != a)) Seq(s"$id: answer differs from the run's first answer")
    else Seq.empty

  /** A rebuild must reproduce the first build exactly. */
  private def buildProblems(i: Int, b: LovoBuild, ref: LovoBuild): Seq[String] =
    if (b.counts != ref.counts)
      Seq(s"ingest $i: BuildCounts ${b.counts} differ from the first build's ${ref.counts}")
    else if (b.index.cellDirectory != ref.index.cellDirectory)
      Seq(s"ingest $i: cell directory differs from the first build's")
    else if (!java.util.Arrays.deepEquals(b.index.pq.codebooks.asInstanceOf[Array[AnyRef]],
        ref.index.pq.codebooks.asInstanceOf[Array[AnyRef]]))
      Seq(s"ingest $i: PQ codebooks differ from the first build's")
    else Seq.empty
}

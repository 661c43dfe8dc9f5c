package repro.core

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.{Detection, Metrics, Workloads}
import repro.testkit.{Fixtures, SparkJobs}
import repro.video.Datasets
import repro.vit.PatchGrid

class LovoSpec extends SparkSpec {

  private lazy val b = Fixtures.cityscapes
  private lazy val build = b.build

  test("build counts are consistent") {
    val c = build.counts
    assert(c.rawFrames == b.dataset.totalRawFrames)
    assert(math.abs(c.keyFrames - c.rawFrames / b.dataset.keyPeriod) <= b.dataset.nVideos)
    assert(c.entries == c.keyFrames * PatchGrid.K)
    assert(c.storageBytes == c.entries * repro.vit.VideoSummary.bytesPerEntry)
  }

  test("index and metadata cover every patch") {
    assert(build.index.total == build.counts.entries)
    assert(build.meta.count() == build.counts.entries)
  }

  test("fast search retrieves frames containing planted positives for a simple query") {
    val spec = Workloads.byId("Q1.1")
    val parsed = TextEncoder.parse(spec.text)
    val gt = b.gt("Q1.1")
    val (cands, stats) = Lovo.fastSearch(build, parsed, k = 10 * spec.nPos)
    assert(cands.nonEmpty)
    assert(stats.candidates < build.index.total, "fast search must not scan everything")
    val gtFrames = gt.map(_.frameId).toSet
    val hitFrames = cands.map(_.frameId).toSet
    assert(gtFrames.intersect(hitFrames).size.toDouble / gtFrames.size >= 0.5,
      s"fast search found ${gtFrames.intersect(hitFrames).size} of ${gtFrames.size} GT frames")
  }

  test("end-to-end query with rerank achieves reasonable AveP on a simple query") {
    val spec = Workloads.byId("Q1.1")
    val parsed = TextEncoder.parse(spec.text)
    val res = Lovo.query(build, parsed, k = 10 * spec.nPos)
    val dets = res.candidates.map(c => Detection(c.frameId, c.score, c.box))
    val avep = Metrics.averagePrecision(dets, b.gt("Q1.1"))
    assert(avep > 0.4, s"AveP=$avep for Q1.1 at test scale")
  }

  test("rerank beats no-rerank on the relational query (the paper's core ablation)") {
    val spec = Workloads.byId("Q1.2")
    val parsed = TextEncoder.parse(spec.text)
    val k = 10 * spec.nPos
    val withR = Lovo.query(build, parsed, k, useRerank = true)
    val withoutR = Lovo.query(build, parsed, k, useRerank = false)
    val gt = b.gt("Q1.2")
    val a = Metrics.averagePrecision(withR.candidates.map(c => Detection(c.frameId, c.score, c.box)), gt)
    val o = Metrics.averagePrecision(withoutR.candidates.map(c => Detection(c.frameId, c.score, c.box)), gt)
    // at this tiny scale both stages can saturate; the strict gap is
    // asserted at bench scale (TableIVBench) — here: no regression + quality
    assert(a >= o, s"rerank AveP $a must not fall below fast-search-only $o")
    assert(a > 0.5, s"rerank AveP $a too low")
  }

  test("w/o rerank returns the raw fast-search candidates") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val res = Lovo.query(build, parsed, k = 20, useRerank = false)
    assert(res.rerank.isEmpty)
    assert(res.candidates.size <= 20)
    assert(res.candidates.forall(_.patchId >= 0))
  }

  test("reranked results carry decoder boxes (patchId = -1 sentinel)") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val res = Lovo.query(build, parsed, k = 20, useRerank = true)
    assert(res.rerank.isDefined)
    assert(res.candidates.forall(_.patchId == -1L))
    assert(res.rerank.get.framesProcessed > 0)
  }

  test("BF and HNSW variants answer the same query") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val (bf, bfStats) = Lovo.fastSearch(build, parsed, k = 30, AnnVariant.Bf)
    val g = Lovo.buildHnsw(build)
    val (hn, _) = Lovo.fastSearch(build, parsed, k = 30, AnnVariant.Hnsw, Some(g))
    assert(bf.size == 30 && hn.size == 30)
    assert(bfStats.candidates == build.index.total)
    // graph recall vs the exact scan
    val overlap = bf.map(_.patchId).toSet.intersect(hn.map(_.patchId).toSet).size / 30.0
    assert(overlap >= 0.7, s"HNSW overlap with BF = $overlap")
  }

  /** A planted query and one with no vocabulary tokens (zero query vector). */
  private def normalAndEmpty: Seq[TextEncoder.ParsedQuery] =
    Seq(Workloads.byId("Q1.1").text, "xyzzy plugh").map(TextEncoder.parse)

  /** Both entry points reject the arguments for both queries, before any Spark job. */
  private def assertRejected(k: Int, variant: AnnVariant, hnsw: Option[repro.index.HnswIndex]): Unit =
    for (parsed <- normalAndEmpty) {
      val (_, work) = SparkJobs.count(spark.sparkContext) {
        intercept[IllegalArgumentException](Lovo.fastSearch(build, parsed, k, variant, hnsw))
        intercept[IllegalArgumentException](Lovo.query(build, parsed, k, variant, hnsw = hnsw))
      }
      assert(work.jobs == 0, s"${AnnVariant.name(variant)} k=$k ran ${work.jobs} jobs")
    }

  test("IVF-PQ rejects k < 1 for every query") {
    for (k <- Seq(0, -1)) assertRejected(k, AnnVariant.IvfPq, None)
  }

  test("BF rejects k < 1 for every query") {
    for (k <- Seq(0, -1)) assertRejected(k, AnnVariant.Bf, None)
  }

  test("HNSW rejects k < 1 for every query") {
    for (k <- Seq(0, -1)) assertRejected(k, AnnVariant.Hnsw, Some(b.hnsw._1))
  }

  test("HNSW variant without a prebuilt graph is rejected") {
    assertRejected(5, AnnVariant.Hnsw, None)
  }

  test("queries are deterministic end to end") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.2").text)
    val a = Lovo.query(build, parsed, k = 40)
    val c = Lovo.query(build, parsed, k = 40)
    assert(a.candidates == c.candidates)
  }

  test("a query with no vocabulary tokens has no candidates and runs no Spark job") {
    val parsed = TextEncoder.parse("xyzzy plugh")
    assert(parsed.tokens.isEmpty)
    for (variant <- Seq(AnnVariant.IvfPq, AnnVariant.Bf)) {
      val ((cands, stats), work) = SparkJobs.count(spark.sparkContext) {
        Lovo.fastSearch(build, parsed, k = 20, variant)
      }
      assert(cands.isEmpty, s"${AnnVariant.name(variant)} returned ${cands.size} candidates")
      assert(stats.candidates == 0L && stats.rescored == 0L)
      assert(work.jobs == 0)
    }
    val (res, work) = SparkJobs.count(spark.sparkContext)(Lovo.query(build, parsed, k = 20))
    assert(res.candidates.isEmpty)
    assert(res.rerank.forall(_.framesProcessed == 0))
    assert(work.jobs == 0)
  }

  test("k larger than the collection returns every entry, best first, for every variant") {
    val parsed = TextEncoder.parse(Workloads.byId("Q1.1").text)
    val n = build.counts.entries
    for (variant <- AnnVariant.all; k <- Seq(n.toInt + 1, Int.MaxValue)) {
      val hnsw = if (variant == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      val (cands, _) = Lovo.fastSearch(build, parsed, k, variant, hnsw)
      val what = s"${AnnVariant.name(variant)} k=$k"
      assert(cands.size == n, s"$what: ${cands.size} of $n entries")
      assert(cands.map(_.patchId).distinct.size == n, what)
      assert(cands.sliding(2).forall(w => w.size < 2 || w(0).score >= w(1).score),
        s"$what: not in descending score order")
    }
  }

  test("a dataset with zero keyframes is rejected before any index is built") {
    val empty = Datasets.cityscapes.copy(name = "cityscapes-empty", nVideos = 0)
    val e = intercept[IllegalArgumentException](Lovo.build(spark, empty, Seq.empty))
    assert(e.getMessage.contains("no keyframes"), e.getMessage)
  }

  test("LovoConfig validates PQ dimensions") {
    intercept[IllegalArgumentException] { LovoConfig(pqSubspaces = 3) }
  }

  test("LovoConfig validates scanFraction in (0, 1]") {
    intercept[IllegalArgumentException] { LovoConfig(scanFraction = 0.0) }
    intercept[IllegalArgumentException] { LovoConfig(scanFraction = 1.01) }
    assert(LovoConfig(scanFraction = 1.0).scanFraction == 1.0)
  }

  test("LovoConfig validates rescoreFactor > 0") {
    intercept[IllegalArgumentException] { LovoConfig(rescoreFactor = 0) }
  }

  test("LovoConfig validates kmeansIters >= 1") {
    intercept[IllegalArgumentException] { LovoConfig(kmeansIters = 0) }
  }

  test("LovoConfig validates pqCentroids >= 1") {
    intercept[IllegalArgumentException] { LovoConfig(pqCentroids = 0) }
  }

  test("LovoConfig validates hnswM >= 2") {
    intercept[IllegalArgumentException] { LovoConfig(hnswM = 1) }
    assert(LovoConfig(hnswM = 2).hnswM == 2)
  }

  test("LovoConfig validates hnswEfConstruction >= 1") {
    intercept[IllegalArgumentException] { LovoConfig(hnswEfConstruction = 0) }
  }

  test("LovoConfig validates hnswEfSearch >= 1") {
    intercept[IllegalArgumentException] { LovoConfig(hnswEfSearch = 0) }
  }

  test("LovoConfig validates indexPartitions >= 1") {
    intercept[IllegalArgumentException] { LovoConfig(indexPartitions = 0) }
  }

  test("AnnVariant names round-trip") {
    assert(AnnVariant.all.map(AnnVariant.name).toSet == Set("BF", "IVF-PQ", "HNSW"))
  }
}

package repro.eval

import repro.SparkSpec
import repro.core.{AnnVariant, Lovo}
import repro.encoder.TextEncoder
import repro.testkit.Fixtures

class HarnessSpec extends SparkSpec {

  private lazy val b = Fixtures.cityscapes

  test("bundle exposes the dataset's queries and their ground truth") {
    assert(b.queries.map(_.id).toSet == Set("Q1.1", "Q1.2", "Q1.3", "Q1.4"))
    for (q <- b.queries)
      assert(b.gt(q.id).size >= q.nPos, s"${q.id}: gt ${b.gt(q.id).size} < planted ${q.nPos}")
  }

  test("superset queries inherit the more specific query's positives (Q1.3 ⊆ Q1.4)") {
    val q13 = Workloads.byId("Q1.3"); val q14 = Workloads.byId("Q1.4")
    assert(b.gt("Q1.3").size >= q13.nPos + q14.nPos)
  }

  test("runLovo returns a fully populated run") {
    val r = Harness.runLovo(b, "Q1.1")
    assert(r.queryId == "Q1.1" && r.variant == AnnVariant.IvfPq && r.useRerank)
    assert(r.avep >= 0.0 && r.avep <= 1.0)
    assert(r.k == b.lcfg.retrievalMultiplier * Workloads.byId("Q1.1").nPos)
    assert(r.gtCount == b.gt("Q1.1").size)
    assert(r.fastSec > 0 && r.rerankSec > 0)
    assert(r.processingSec > 0 && r.indexingSec > 0)
    assert(r.searchSec == r.fastSec + r.rerankSec)
    assert(math.abs(r.totalSec - (r.processingSec + r.indexingSec + r.searchSec)) < 1e-12)
    assert(r.framesReranked > 0)
  }

  test("runLovo scores exactly what Lovo.query returns, for every variant and rerank setting") {
    val spec = Workloads.byId("Q1.2")
    val parsed = TextEncoder.parse(spec.text)
    val k = b.lcfg.retrievalMultiplier * spec.nPos
    for (variant <- AnnVariant.all; useRerank <- Seq(true, false)) {
      val hnsw = if (variant == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      val res = Lovo.query(b.build, parsed, k, variant, useRerank, hnsw)
      val dets = res.candidates.map(c => Detection(c.frameId, c.score, c.box))
      val r = Harness.runLovo(b, spec.id, variant, useRerank)
      val what = s"${AnnVariant.name(variant)} rerank=$useRerank"
      assert(r.k == k, what)
      assert(r.avep == Metrics.averagePrecision(dets, b.gt(spec.id)), what)
      assert(r.fastSec == CostModel.fastSearch(res.fastStats), what)
      assert(r.rerankSec == res.rerank.fold(0.0)(CostModel.rerank), what)
      assert(r.framesReranked == res.rerank.fold(0)(_.framesProcessed), what)
      assert(res.rerank.isDefined == useRerank, what)
    }
  }

  test("w/o rerank runs report zero rerank cost") {
    val r = Harness.runLovo(b, "Q1.1", useRerank = false)
    assert(r.rerankSec == 0.0 && r.framesReranked == 0)
  }

  test("BF scans the whole collection; IVF-PQ scans a bounded fraction") {
    // On the 4% fixture the exact-rescore depth (rescoreFactor * k) is over
    // a third of the ~2.8k vectors, so the modeled IVF-PQ search costs more
    // than a full scan. Cityscapes at 0.3 (21k vectors, the fast-city
    // workload) is large enough for the bounded scan to be the cheaper one.
    val big = Harness.bundle(spark, "cityscapes", scale = 0.3)
    val entries = big.build.counts.entries
    try for (spec <- big.queries) {
      val ann = Harness.runLovo(big, spec.id, AnnVariant.IvfPq, useRerank = false)
      val bf = Harness.runLovo(big, spec.id, AnnVariant.Bf, useRerank = false)
      assert(bf.indexingSec == 0.0)
      assert(bf.fastSec > ann.fastSec, s"${spec.id}: BF ${bf.fastSec} s <= IVF-PQ ${ann.fastSec} s")
      def scanned(v: AnnVariant) =
        Lovo.query(big.build, TextEncoder.parse(spec.text), ann.k, v, useRerank = false)
          .fastStats.candidates
      assert(scanned(AnnVariant.Bf) == entries, spec.id)
      assert(scanned(AnnVariant.IvfPq) < entries, spec.id)
    } finally big.build.unpersist()
  }

  test("HNSW variant builds its graph once and charges indexing time") {
    val r1 = Harness.runLovo(b, "Q1.1", AnnVariant.Hnsw, useRerank = false)
    val r2 = Harness.runLovo(b, "Q1.2", AnnVariant.Hnsw, useRerank = false)
    assert(r1.indexingSec > 0)
    assert(r1.indexingSec == r2.indexingSec, "graph build cost must be cached")
  }

  test("queries from another dataset are rejected") {
    intercept[IllegalArgumentException] { Harness.runLovo(b, "Q2.1") }
  }

  test("all six baselines run and score on a planted query") {
    for (m <- Seq("VOCAL", "MIRIS", "FiGO", "ZELDA", "UMT", "VISA")) {
      val r = Harness.runBaseline(b, m, "Q1.1")
      assert(r.method == m)
      assert(r.avep >= 0.0 && r.avep <= 1.0, s"$m avep=${r.avep}")
      assert(r.searchSec > 0, s"$m search time")
      assert(r.totalSec == r.processingSec + r.searchSec)
    }
    intercept[RuntimeException] { Harness.runBaseline(b, "NOPE", "Q1.1") }
  }

  test("ad-hoc ground truth for a probe query is measurable") {
    val gt = Harness.groundTruthFor(b, "car")
    assert(gt.nonEmpty, "cityscapes has background cars on keyframes")
  }
}

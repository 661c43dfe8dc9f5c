package repro.core

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.Workloads
import repro.index.{AnnSearch, BruteForce, MetadataStore}
import repro.rerank.CrossModalRerank
import repro.testkit.{Fixtures, SparkJobs, SparkWork}

/** Each query layer is one narrow Spark job: no shuffle, and no more tasks
  * than the session's default parallelism. A fast search is at most one
  * such job and a two-stage query two.
  */
class QueryJobsSpec extends SparkSpec {

  private lazy val bundle = Fixtures.cityscapes
  private lazy val b = bundle.build
  private lazy val spec = Workloads.byId("Q1.1")
  private lazy val parsed = TextEncoder.parse(spec.text)
  private lazy val k = 10 * spec.nPos

  private def assertNarrowJobs(layer: String, w: SparkWork, jobs: Int): Unit = {
    val cores = spark.sparkContext.defaultParallelism
    assert(w.jobs == jobs, s"$layer ran ${w.jobs} Spark jobs, expected $jobs")
    assert(w.shuffleWriteBytes == 0L, s"$layer wrote ${w.shuffleWriteBytes} shuffle bytes")
    for (t <- w.jobTasks) assert(t >= 1 && t <= cores, s"$layer ran a job of $t tasks on $cores cores")
  }

  private def assertOneNarrowJob(layer: String, w: SparkWork): Unit = assertNarrowJobs(layer, w, 1)

  test("ANN search, metadata resolve and rerank each run one narrow Spark job") {
    Lovo.query(b, parsed, k) // materializes the caches the query reads
    b.meta.count()           // and the metadata store the resolve reads
    val q = TextEncoder.fastEmbedding(parsed)
    val (hits, ann) = SparkJobs.count(spark.sparkContext) {
      AnnSearch.search(b.index, q, k, b.cfg.topA, b.cfg.rescoreFactor, b.cfg.scanFraction)._1
    }
    assertOneNarrowJob("AnnSearch.search", ann)
    val (cands, meta) = SparkJobs.count(spark.sparkContext)(MetadataStore.resolve(b.meta, hits))
    assertOneNarrowJob("MetadataStore.resolve", meta)
    assert(cands.size == hits.size)
    val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
    val (rr, rerank) = SparkJobs.count(spark.sparkContext) {
      CrossModalRerank.rerank(b.frames, frameOrder, parsed, b.cfg.rerank)
    }
    assertOneNarrowJob("CrossModalRerank.rerank", rerank)
    assert(rr.framesProcessed == frameOrder.size)
  }

  test("brute force is the same one-job scan") {
    val (_, bf) = SparkJobs.count(spark.sparkContext) {
      BruteForce.search(b.index, TextEncoder.fastEmbedding(parsed), k)
    }
    assertOneNarrowJob("BruteForce.search", bf)
  }

  test("Lovo.fastSearch is one narrow job for IVF-PQ and BF, and none for HNSW") {
    val hnsw = Some(bundle.hnsw._1)
    Lovo.query(b, parsed, k)
    for (variant <- Seq(AnnVariant.IvfPq, AnnVariant.Bf)) {
      val (_, w) = SparkJobs.count(spark.sparkContext)(Lovo.fastSearch(b, parsed, k, variant))
      assertNarrowJobs(s"Lovo.fastSearch ${AnnVariant.name(variant)}", w, 1)
    }
    val ((cands, _), w) = SparkJobs.count(spark.sparkContext) {
      Lovo.fastSearch(b, parsed, k, AnnVariant.Hnsw, hnsw)
    }
    assert(cands.size == k)
    assertNarrowJobs("Lovo.fastSearch HNSW", w, 0)
  }

  test("Lovo.query is two narrow jobs: the search and the rerank") {
    Lovo.query(b, parsed, k)
    val (res, w) = SparkJobs.count(spark.sparkContext)(Lovo.query(b, parsed, k))
    assert(res.rerank.exists(_.framesProcessed > 0))
    assertNarrowJobs("Lovo.query", w, 2)
  }
}

package repro.core

import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.Workloads
import repro.index.{AnnSearch, BruteForce, MetadataStore}
import repro.rerank.CrossModalRerank
import repro.testkit.{Fixtures, SparkJobs, SparkWork}

/** Each query layer is one narrow Spark job: no shuffle, and no more tasks
  * than the session's default parallelism.
  */
class QueryJobsSpec extends SparkSpec {

  private lazy val b = Fixtures.cityscapes.build
  private lazy val spec = Workloads.byId("Q1.1")
  private lazy val parsed = TextEncoder.parse(spec.text)
  private lazy val k = 10 * spec.nPos

  private def assertOneNarrowJob(layer: String, w: SparkWork): Unit = {
    val cores = spark.sparkContext.defaultParallelism
    assert(w.jobs == 1, s"$layer ran ${w.jobs} Spark jobs")
    assert(w.shuffleWriteBytes == 0L, s"$layer wrote ${w.shuffleWriteBytes} shuffle bytes")
    assert(w.tasks >= 1 && w.tasks <= cores, s"$layer ran ${w.tasks} tasks on $cores cores")
  }

  test("ANN search, metadata resolve and rerank each run one narrow Spark job") {
    Lovo.query(b, parsed, k) // materializes every cache the layers read
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
}

package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.encoder.TextEncoder
import repro.index._
import repro.pq.ProductQuantizer
import repro.rerank.{CrossModalRerank, RerankResult}
import repro.video.{DatasetConfig, FrameRec, Keyframes, PlantSpec, SynthVideo}
import repro.vit.{PatchRec, VideoSummary}

/** Operation counts of the offline build (cost-model inputs). */
final case class BuildCounts(
    rawFrames: Long,
    keyFrames: Long,
    entries: Long,
    kmeansIters: Int,
    storageBytes: Long)

/** A built LOVO instance over one dataset: raw frames (the "video"),
  * the vector index, and the relational metadata store. `meta` is cached
  * lazily: queries read boxes from the index, so it is materialized only
  * when SQL or an oracle check reads it.
  */
final case class LovoBuild(
    cfg: LovoConfig,
    dataset: DatasetConfig,
    frames: Dataset[FrameRec],
    patches: Dataset[PatchRec],
    index: InvertedMultiIndex,
    meta: Dataset[PatchMeta],
    counts: BuildCounts) {

  /** Drop every cached Dataset of this build. */
  def unpersist(): Unit = Seq(frames, patches, index.entries, meta).foreach(_.unpersist())
}

/** One end-to-end query answer: ranked candidates and stage telemetry. */
final case class LovoQueryResult(
    candidates: Seq[Candidate],     // final ranked detections (post-rerank if enabled)
    fastStats: AnnStats,
    rerank: Option[RerankResult])

/** The LOVO system (paper §III): one-time video summary + vector-database
  * index build, then the two-stage query strategy of Algorithm 2.
  */
object Lovo {

  /** Offline phase: generate/ingest video, select keyframes, summarize,
    * train PQ codebooks, build the inverted multi-index + metadata store.
    *
    * A dataset with no keyframes fails with `IllegalArgumentException`
    * before the summary and the index are built.
    *
    * @param keyOnly false reproduces the w/o-key-frame ablation (index
    *                every raw frame)
    */
  def build(spark: SparkSession, dataset: DatasetConfig, specs: Seq[PlantSpec],
            cfg: LovoConfig = LovoConfig(), keyOnly: Boolean = true): LovoBuild = {
    import spark.implicits._
    val frames = Keyframes.select(SynthVideo.frames(spark, dataset, specs)).cache()
    val rawFrames = frames.count()
    val keyFrames = frames.filter(_.isKey).count()
    require(keyFrames > 0, s"dataset ${dataset.name} has no keyframes ($rawFrames raw frames)")
    val patches = VideoSummary.summarize(frames, cfg.summary, keyOnly).cache()
    val nEntries = patches.count()
    val pq = ProductQuantizer.train(
      patches.map(_.emb).rdd, cfg.pqSubspaces, cfg.pqSubdim, cfg.pqCentroids,
      cfg.kmeansIters)
    val index = InvertedMultiIndex.build(patches, pq, cfg.indexPartitions)
    val meta = MetadataStore.build(patches)
    LovoBuild(cfg, dataset, frames, patches, index, meta,
      BuildCounts(rawFrames, keyFrames, nEntries, cfg.kmeansIters,
        nEntries * VideoSummary.bytesPerEntry))
  }

  /** Build the HNSW variant's graph over the same stored vectors. */
  def buildHnsw(b: LovoBuild): HnswIndex =
    Hnsw.build(b.index, b.cfg.hnswM, b.cfg.hnswEfConstruction)

  /** Stage 1 — top-k fast search (Algorithm 2 lines 1–2): encode the key
    * phrases to a single query vector and search the chosen index variant;
    * each hit carries its keyframe id and box from the index entry, so no
    * metadata lookup runs. IVF-PQ and BF are one narrow Spark job each;
    * HNSW searches its driver-side graph and runs none. A query with no
    * vocabulary tokens encodes to the zero vector, which scores every
    * stored vector alike: it has no candidates, and no Spark job runs.
    * `k < 1`, or the HNSW variant without a graph, is rejected for every
    * query.
    */
  def fastSearch(b: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int,
                 variant: AnnVariant = AnnVariant.IvfPq,
                 hnsw: Option[HnswIndex] = None): (Seq[Candidate], AnnStats) = {
    require(k > 0, s"k must be positive, got $k")
    require(variant != AnnVariant.Hnsw || hnsw.isDefined,
      "HNSW variant requires a prebuilt graph")
    val q = TextEncoder.fastEmbedding(parsed)
    if (q.forall(_ == 0f)) return (Seq.empty, AnnStats(0L, 0L, 0L, 0L, 0L))
    val (hits, stats) = variant match {
      case AnnVariant.IvfPq =>
        AnnSearch.search(b.index, q, k, b.cfg.topA, b.cfg.rescoreFactor, b.cfg.scanFraction)
      case AnnVariant.Bf =>
        BruteForce.search(b.index, q, k)
      case AnnVariant.Hnsw =>
        Hnsw.search(hnsw.get, q, k, math.max(b.cfg.hnswEfSearch, k))
    }
    (hits.map(h => Candidate(h.patchId, h.frameId, h.score, h.box)), stats)
  }

  /** Full two-stage query (Algorithm 2). With rerank disabled the fast
    * search candidates are returned as-is (Table IV w/o-rerank ablation).
    */
  def query(b: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int,
            variant: AnnVariant = AnnVariant.IvfPq,
            useRerank: Boolean = true,
            hnsw: Option[HnswIndex] = None): LovoQueryResult = {
    val (cands, stats) = fastSearch(b, parsed, k, variant, hnsw)
    if (!useRerank) return LovoQueryResult(cands, stats, None)

    // Stage 2: rerank the distinct candidate frames (best-score order).
    val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
    val rr = CrossModalRerank.rerank(b.frames, frameOrder, parsed, b.cfg.rerank)
    val reranked = rr.objects.take(k).map(o =>
      Candidate(patchId = -1L, frameId = o.frameId, score = o.score, box = o.box))
    LovoQueryResult(reranked, stats, Some(rr))
  }
}

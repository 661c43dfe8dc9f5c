package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.encoder.TextEncoder
import repro.index._
import repro.pq.ProductQuantizer
import repro.rerank.CrossModalRerank
import repro.video.{DatasetConfig, Keyframes, PlantSpec, SynthVideo}
import repro.vit.VideoSummary

/** `Lovo.build`, `Lovo.fastSearch` and `Lovo.query` spelled out step by
  * step, with a span around each call into a layer. They call the same
  * public functions in the same order; the benchmark checks that their
  * results equal the untraced calls'. Build steps materialize at each
  * boundary (cache + count, as `Lovo.build` already does for frames and
  * patches; here also for the metadata store) so each step's Spark work
  * lands in its own span.
  */
final class TracedLovo(t: Tracer, spark: SparkSession) {
  import spark.implicits._

  private def storageMb(): Double = Storage.cachedMb(spark)

  /** The same steps as `Lovo.build`, each in its own span. */
  def build(dataset: DatasetConfig, specs: Seq[PlantSpec], cfg: LovoConfig,
            label: String): LovoBuild = t.span("core.build", label) {
    val (frames, rawFrames, keyFrames) = t.span("video") {
      val mb0 = storageMb()
      val f = Keyframes.select(SynthVideo.frames(spark, dataset, specs)).cache()
      val raw = f.count()
      val key = f.filter(_.isKey).count()
      t.attr("raw_frames", raw.toDouble)
      t.attr("keyframes", key.toDouble)
      t.attr("storage_mb", storageMb() - mb0)
      (f, raw, key)
    }
    val (patches, nEntries) = t.span("vit") {
      val mb0 = storageMb()
      val p = VideoSummary.summarize(frames, cfg.summary, keyOnly = true).cache()
      val n = p.count()
      t.attr("patches", n.toDouble)
      t.attr("storage_mb", storageMb() - mb0)
      (p, n)
    }
    val pq = t.span("pq") {
      ProductQuantizer.train(patches.map(_.emb).rdd, cfg.pqSubspaces, cfg.pqSubdim,
        cfg.pqCentroids, cfg.kmeansIters)
    }
    val index = t.span("index.imi_build") {
      val mb0 = storageMb()
      val ix = InvertedMultiIndex.build(patches, pq, cfg.indexPartitions)
      t.attr("cells", ix.nCells.toDouble)
      t.attr("vectors", ix.total.toDouble)
      t.attr("storage_mb", storageMb() - mb0)
      ix
    }
    val meta = t.span("index.meta_build") {
      val mb0 = storageMb()
      val m = MetadataStore.build(patches)
      m.count()
      t.attr("storage_mb", storageMb() - mb0)
      m
    }
    LovoBuild(cfg, dataset, frames, patches, index, meta,
      BuildCounts(rawFrames, keyFrames, nEntries, cfg.kmeansIters,
        nEntries * VideoSummary.bytesPerEntry))
  }

  def buildHnsw(b: LovoBuild, label: String = ""): HnswIndex = t.span("index.hnsw_build", label) {
    val g = Lovo.buildHnsw(b)
    t.attr("dist_comps", g.distComps.toDouble)
    g
  }

  /** Text to resolved candidates: parse + fast embedding, IVF-PQ search,
    * metadata resolve.
    */
  def fastSearch(b: LovoBuild, text: String, k: Int): (TextEncoder.ParsedQuery, Seq[Candidate]) = {
    val (parsed, q) = t.span("encoder") {
      val p = TextEncoder.parse(text)
      (p, TextEncoder.fastEmbedding(p))
    }
    val hits = t.span("index.ann") {
      val (h, st) = AnnSearch.search(b.index, q, k, b.cfg.topA, b.cfg.rescoreFactor, b.cfg.scanFraction)
      t.attr("cells_scored", st.cellsScored.toDouble)
      t.attr("cells_selected", st.cellsSelected.toDouble)
      t.attr("candidates", st.candidates.toDouble)
      t.attr("rescored", st.rescored.toDouble)
      t.attr("yield", if (st.candidates > 0) k.toDouble / st.candidates else 0.0)
      h
    }
    (parsed, t.span("index.meta")(MetadataStore.resolve(b.meta, hits)))
  }

  /** The two-stage query: fast search, then rerank of the distinct
    * candidate frames in best-score order.
    */
  def query(b: LovoBuild, text: String, k: Int): Seq[Candidate] = {
    val (parsed, cands) = fastSearch(b, text, k)
    val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
    val rr = t.span("rerank") {
      val r = CrossModalRerank.rerank(b.frames, frameOrder, parsed, b.cfg.rerank)
      t.attr("frames", r.framesProcessed.toDouble)
      t.attr("image_tokens", r.totalImageTokens.toDouble)
      r
    }
    rr.objects.take(k).map(o => Candidate(patchId = -1L, frameId = o.frameId, score = o.score, box = o.box))
  }
}

/** Spark storage memory held by cached RDDs and Datasets. */
object Storage {
  def cachedMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / (1024.0 * 1024.0)
}

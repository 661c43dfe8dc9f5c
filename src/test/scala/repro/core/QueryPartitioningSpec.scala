package repro.core

import scala.collection.mutable
import repro.SparkSpec
import repro.encoder.TextEncoder
import repro.eval.Workloads
import repro.index._
import repro.rerank.{CrossModalRerank, RerankResult}
import repro.testkit.Fixtures
import repro.util.VecOps
import repro.vit.BBox

/** Query answers do not depend on how the stored Datasets are partitioned,
  * and the ANN answer equals a driver-side reading of Algorithm 1 whose
  * boxes come from the relational metadata store.
  */
class QueryPartitioningSpec extends SparkSpec {
  import QueryPartitioningSpec.Answer

  private lazy val bundle = Fixtures.cityscapes
  private lazy val b = bundle.build
  private val partitionCounts = Seq(1, 4, 16)

  /** The same build with index and frames in `n` partitions, all from the
    * same PQ codebooks.
    */
  private lazy val layouts: Seq[LovoBuild] = partitionCounts.map { n =>
    b.copy(
      index = InvertedMultiIndex.build(b.patches, b.index.pq, n),
      frames = b.frames.repartition(n).cache())
  }

  private lazy val queries = Workloads.forDataset("cityscapes").map { spec =>
    (spec.id, TextEncoder.parse(spec.text),
      math.min(10L * spec.nPos, b.index.total).toInt)
  }

  private def answer(lb: LovoBuild, parsed: TextEncoder.ParsedQuery, k: Int): Answer = {
    val q = TextEncoder.fastEmbedding(parsed)
    val (hits, stats) =
      AnnSearch.search(lb.index, q, k, lb.cfg.topA, lb.cfg.rescoreFactor, lb.cfg.scanFraction)
    val cands = Lovo.fastSearch(lb, parsed, k)._1
    val frameOrder = cands.sortBy(c => (-c.score, c.frameId)).map(_.frameId).distinct
    Answer(hits, stats, BruteForce.search(lb.index, q, k)._1, cands,
      CrossModalRerank.rerank(lb.frames, frameOrder, parsed, lb.cfg.rerank))
  }

  /** Algorithm 1 over the collected entries: rank cells by summed LUT score,
    * cover the scan budget, take the global top `rescoreDepth` by (ADC desc,
    * patch id), rescore exactly, keep the top k by (score desc, patch id).
    * Each hit's box is its metadata row's.
    */
  private def reference(index: InvertedMultiIndex, q: Array[Float], k: Int,
                        cfg: LovoConfig, metaById: Map[Long, PatchMeta]): (Seq[SearchHit], AnnStats) = {
    val pq = index.pq
    val qn = VecOps.normalize(q)
    val lut = pq.lut(qn)
    val entries = index.entries.collect().toSeq
    val cellCounts = entries.groupBy(_.cellId).toSeq.map { case (cell, es) => (cell, es.size.toLong) }
    val ranked = cellCounts.sortBy { case (cell, _) => (-pq.adcScore(lut, pq.decodeCell(cell)), cell) }
    val minCover = math.max(cfg.rescoreFactor.toLong * k,
      math.ceil(entries.size * cfg.scanFraction).toLong)
    val selected = mutable.Set[Long]()
    var covered = 0L
    for ((cell, n) <- ranked if covered < minCover) { selected += cell; covered += n }
    val depth = math.max(cfg.rescoreFactor.toLong * k, covered / 4).toInt
    val approx = entries.filter(e => selected(e.cellId))
      .sortBy(e => (-pq.adcScore(lut, e.codes), e.patchId))
      .take(depth)
    val hits = approx.map { e =>
      val m = metaById(e.patchId)
      SearchHit(e.patchId, e.frameId, VecOps.dot(qn, e.emb), BBox(m.px, m.py, m.pw, m.ph))
    }
      .sortBy(h => (-h.score, h.patchId))
      .take(k)
    (hits, AnnStats(pq.P.toLong * pq.M, cellCounts.size, selected.size, covered, approx.size))
  }

  /** Each query's answer in each layout. */
  private lazy val answers: Seq[((String, TextEncoder.ParsedQuery, Int), Seq[Answer])] =
    queries.map { case query @ (_, parsed, k) => query -> layouts.map(answer(_, parsed, k)) }

  test("answers are identical across 1, 4 and 16 partitions") {
    for (((id, _, _), perLayout) <- answers) {
      val first = perLayout.head
      assert(first.hits.nonEmpty, s"$id: no hits")
      assert(first.rerank.framesProcessed > 0, s"$id: nothing reranked")
      for ((a, n) <- perLayout.zip(partitionCounts).tail) {
        assert(a.hits == first.hits, s"$id: hits differ at $n partitions")
        assert(a.stats == first.stats, s"$id: AnnStats differ at $n partitions")
        assert(a.bf == first.bf, s"$id: brute-force hits differ at $n partitions")
        assert(a.candidates == first.candidates, s"$id: candidates differ at $n partitions")
        assert(a.rerank == first.rerank, s"$id: rerank differs at $n partitions")
      }
    }
  }

  test("ANN hits, stats and resolved candidates equal the driver-side reference") {
    val metaById = b.meta.collect().map(m => m.patchId -> m).toMap
    for (((id, parsed, k), perLayout) <- answers) {
      val (refHits, refStats) =
        reference(b.index, TextEncoder.fastEmbedding(parsed), k, b.cfg, metaById)
      val refCands = refHits.map(h => Candidate(h.patchId, metaById(h.patchId).frameId, h.score, h.box))
      for ((a, n) <- perLayout.zip(partitionCounts)) {
        assert(a.hits == refHits, s"$id: hits differ from the reference at $n partitions")
        assert(a.stats == refStats, s"$id: AnnStats differ from the reference at $n partitions")
        assert(a.candidates == refCands, s"$id: candidates differ from the reference at $n partitions")
      }
    }
  }

  override def afterAll(): Unit = {
    layouts.foreach { lb => lb.index.entries.unpersist(); lb.frames.unpersist() }
    super.afterAll()
  }
}

object QueryPartitioningSpec {
  /** One query's answer from every layer that reads a stored Dataset. */
  final case class Answer(
      hits: Seq[SearchHit], stats: AnnStats, bf: Seq[SearchHit],
      candidates: Seq[Candidate], rerank: RerankResult)
}

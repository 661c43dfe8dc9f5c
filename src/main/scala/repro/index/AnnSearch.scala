package repro.index

import repro.util.{Scans, VecOps}
import repro.vit.BBox

/** A vector-database hit: the stored patch, its exact score and the
  * patch's predicted box, read from the index entry.
  */
final case class SearchHit(patchId: Long, frameId: Long, score: Double, box: BBox)

/** Operation counts of one search — the cost model's inputs. */
final case class AnnStats(
    lutDots: Long,        // q_p · centroid dot products (P*M)
    cellsScored: Long,    // directory cells ranked on the driver
    cellsSelected: Long,  // cells whose postings were fetched
    candidates: Long,     // vectors ADC-scored (postings scanned)
    rescored: Long)       // vectors exactly rescored

/** The best rows of one scan, column-wise: `rank` is the score the scan
  * ordered by, `exact` the inner product with the query, `box` the
  * entries' boxes as four doubles (x, y, w, h) per row.
  */
private[index] final class TopRows(
    val patchId: Array[Long],
    val frameId: Array[Long],
    val rank: Array[Double],
    val exact: Array[Double],
    val box: Array[Double]) extends Serializable {
  def size: Int = patchId.length

  /** The rows at `idx`, in that order. */
  def select(idx: Array[Int]): TopRows =
    new TopRows(idx.map(patchId), idx.map(frameId), idx.map(rank), idx.map(exact),
      Array.tabulate(4 * idx.length)(j => box(4 * idx(j / 4) + j % 4)))

  /** Row `i` as a hit scored by its exact inner product. */
  def hit(i: Int): SearchHit =
    SearchHit(patchId(i), frameId(i), exact(i),
      BBox(box(4 * i), box(4 * i + 1), box(4 * i + 2), box(4 * i + 3)))
}

/** Approximate nearest-neighbor search over the inverted multi-index —
  * the paper's Algorithm 1 as a driver-planned scan of one narrow Spark
  * job.
  *
  * 1. Partition the (unit-normalized) query into P subvectors; build the
  *    ADC lookup table q_p · centroid (lines 1–5).
  * 2. On the driver, rank the populated cells of the directory by their
  *    summed LUT score and visit them best-first (the multi-sequence
  *    order) until an nprobe-style fraction of the collection is covered.
  * 3. One pass over the stored postings, coalesced to at most
  *    `defaultParallelism` tasks and without a shuffle: each task keeps
  *    the rows of the selected cells, scores them with the LUT sum (lines
  *    8–12) and returns its best max(rescoreFactor * k, scanned/4) rows,
  *    each with its exact inner product (line 14).
  * 4. The driver merges the tasks' rows into the global best rows by ADC
  *    score and returns the top-k by exact score (lines 13–17). Both
  *    orders break ties by patch id, so the answer does not depend on the
  *    partitioning.
  */
object AnnSearch {

  /** @param topA unused: the top-A product set of line 6 is not a filter
    *             here (see the note on the scan order); kept for source
    *             compatibility of positional callers
    */
  def search(index: InvertedMultiIndex, q: Array[Float], k: Int,
             topA: Int = 4, rescoreFactor: Int = 20,
             scanFraction: Double = 0.35): (Seq[SearchHit], AnnStats) = {
    require(k > 0, "k must be positive")
    val pq = index.pq
    val qn = VecOps.normalize(q)
    val table = pq.lut(qn)

    // Multi-sequence scan order: cells strictly by descending summed LUT
    // score (Babenko-Lempitsky's best-first traversal), visited until the
    // nprobe-style budget is covered. The paper's product of per-subspace
    // top-A codes is NOT used as a filter — under encoder noise a relevant
    // cell routinely has one off-top-A code, and letting the (background-
    // dominated) product set preempt the budget destroys recall. The
    // budget itself follows the paper's w/o-ANNS fast-search deltas
    // (0.06 s vs 0.15 s on Cityscapes): an effective scan of ~1/8 of the
    // stored vectors.
    val ids = index.cellIds
    val counts = index.cellCounts
    val cellScore = index.cellCodes.map(pq.adcScore(table, _))
    val order = descending(cellScore, ids)
    val minCover = math.max(rescoreFactor.toLong * k,
      math.ceil(index.total * scanFraction).toLong)
    var covered = 0L
    var nSelected = 0
    while (nSelected < order.length && covered < minCover) {
      covered += counts(order(nSelected)); nSelected += 1
    }
    val cells = order.take(nSelected).map(ids(_)).sorted

    // The exact-rescore depth scales with the scan (ADC ordering is a weak
    // ranker on near-parallel embeddings, so a fixed multiple of k would
    // starve recall as the collection grows). No scan keeps more than the
    // `covered` rows of its cells, so that bounds the depth for any k.
    val rescoreDepth = math.min(math.max(rescoreFactor.toLong * k, covered / 4), covered).toInt
    val approx = scanTop(index, qn, rescoreDepth)(
      e => java.util.Arrays.binarySearch(cells, e.cellId) >= 0,
      e => pq.adcScore(table, e.codes))

    // Exact rescoring with the stored full vectors (lines 13–15).
    val exact = descending(approx.exact, approx.patchId).take(k).map(approx.hit).toSeq

    val stats = AnnStats(
      lutDots = pq.P.toLong * pq.M,
      cellsScored = ids.length,
      cellsSelected = cells.length,
      candidates = covered,
      rescored = approx.size)
    (exact, stats)
  }

  /** The `n` best rows of the index among those that pass `keep`, by
    * (`rank` descending, patch id ascending), each with its exact inner
    * product with `qn`. One narrow Spark job: every task returns its own
    * best `n`, and the driver merges them.
    */
  private[index] def scanTop(index: InvertedMultiIndex, qn: Array[Float], n: Int)(
      keep: IndexedVec => Boolean, rank: IndexedVec => Double): TopRows = {
    val parts = Scans.narrow(index.entries).mapPartitions { it =>
      val rows = it.filter(keep).toArray
      val ranks = rows.map(rank)
      val top = best(ranks, rows.map(_.patchId), n)
      Iterator.single(new TopRows(top.map(rows(_).patchId), top.map(rows(_).frameId),
        top.map(ranks), top.map(i => VecOps.dot(qn, rows(i).emb)),
        top.flatMap { i => val e = rows(i); Array(e.px, e.py, e.pw, e.ph) }))
    }.collect()
    val all = new TopRows(parts.flatMap(_.patchId), parts.flatMap(_.frameId),
      parts.flatMap(_.rank), parts.flatMap(_.exact), parts.flatMap(_.box))
    all.select(best(all.rank, all.patchId, n))
  }

  /** Indices sorted by (score descending, id ascending), scores compared
    * as `sortBy(-score)` does.
    */
  private def descending(score: Array[Double], id: Array[Long]): Array[Int] =
    sortedIndices(score.length) { (a, b) =>
      val c = java.lang.Double.compare(-score(a), -score(b))
      if (c != 0) c < 0 else id(a) < id(b)
    }

  /** Indices of the `n` best rows by (rank descending, patch id
    * ascending). Ranks compare as a Spark sort does: 0.0 equals -0.0.
    */
  private def best(rank: Array[Double], patchId: Array[Long], n: Int): Array[Int] =
    sortedIndices(rank.length) { (a, b) =>
      val c = if (rank(a) == rank(b)) 0 else java.lang.Double.compare(rank(b), rank(a))
      if (c != 0) c < 0 else patchId(a) < patchId(b)
    }.take(n)

  /** 0 until n sorted by the strict total order `before`, without boxing
    * (bottom-up merge sort).
    */
  private def sortedIndices(n: Int)(before: (Int, Int) => Boolean): Array[Int] = {
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var i = lo; var j = mid; var o = lo
        while (o < hi) {
          if (j >= hi || (i < mid && !before(src(j), src(i)))) { dst(o) = src(i); i += 1 }
          else { dst(o) = src(j); j += 1 }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }
}

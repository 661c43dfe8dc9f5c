package repro.index

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, functions => F}
import repro.pq.ProductQuantizer
import repro.util.Scans
import repro.vit.{BBox, PatchRec}

/** One vector-database entry: PQ codes address the multi-index cell, the
  * raw embedding is retained for exact rescoring (paper Alg. 1 line 14),
  * and the patch's predicted box (the [[PatchMeta]] box of the same patch
  * id) travels with every hit.
  */
final case class IndexedVec(
    patchId: Long,
    frameId: Long,
    codes: Array[Int],
    cellId: Long,
    emb: Array[Float],
    px: Double,
    py: Double,
    pw: Double,
    ph: Double) {
  def box: BBox = BBox(px, py, pw, ph)
}

/** The inverted multi-index (paper §V-B, Babenko & Lempitsky [33]).
  *
  * Entries live in a Spark Dataset partitioned by cell id — the
  * distributed analogue of per-cell posting lists. A small driver-side
  * cell directory (cell id -> posting count) lets the query planner pick
  * candidate cells without touching the data; a query's scan keeps only
  * the selected cells' postings.
  */
final case class InvertedMultiIndex(
    entries: Dataset[IndexedVec],
    pq: ProductQuantizer,
    cellDirectory: Map[Long, Long],
    total: Long) {

  def nCells: Int = cellDirectory.size

  // The directory as primitive arrays for the per-query cell ranking,
  // derived once: cell ids, their posting counts and their P codes.
  private[index] lazy val cellIds: Array[Long] = cellDirectory.keys.toArray
  private[index] lazy val cellCounts: Array[Long] = cellIds.map(cellDirectory)
  private[index] lazy val cellCodes: Array[Array[Int]] = cellIds.map(pq.decodeCell)
}

object InvertedMultiIndex {

  /** Index-build batch job: encode every patch embedding, key by cell.
    * The directory is counted per partition in one narrow job over the
    * cell-partitioned entries and summed on the driver.
    */
  def build(patches: Dataset[PatchRec], pq: ProductQuantizer,
            nPartitions: Int = 16): InvertedMultiIndex = {
    val spark = patches.sparkSession
    import spark.implicits._
    val entries = patches
      .map { p =>
        val codes = pq.encode(p.emb)
        IndexedVec(p.patchId, p.frameId, codes, pq.cellId(codes), p.emb, p.px, p.py, p.pw, p.ph)
      }
      .repartition(nPartitions, F.col("cellId"))
      .cache()
    val directory = Scans.narrow(entries)
      .mapPartitions { it =>
        val counts = mutable.LongMap.empty[Long]
        it.foreach(e => counts(e.cellId) = counts.getOrElse(e.cellId, 0L) + 1L)
        counts.iterator
      }
      .collect()
      .groupMapReduce(_._1)(_._2)(_ + _)
    InvertedMultiIndex(entries, pq, directory, directory.values.sum)
  }
}

package repro.index

import org.apache.spark.sql.Dataset
import repro.util.Scans
import repro.vit.{BBox, PatchRec}

/** Relational side store row: patch id -> keyframe id + predicted box
  * (paper §V-B: "supplementary metadata such as key frame identifiers and
  * bounding box coordinates are stored separately in a relational
  * database", linked by the shared patch id).
  */
final case class PatchMeta(
    patchId: Long,
    frameId: Long,
    px: Double,
    py: Double,
    pw: Double,
    ph: Double,
    isObject: Boolean)

/** A retrieval candidate: a hit with its keyframe and box. */
final case class Candidate(
    patchId: Long,
    frameId: Long,
    score: Double,
    box: BBox)

/** The relational side of the storage module: a cached Dataset of
  * [[PatchMeta]] rows, kept in its build partitioning. Queries read the
  * box from the index entry ([[IndexedVec]]) and do not touch this store;
  * it is the plain table that SQL and oracle checks join hits against,
  * and the reference for the boxes the index carries.
  */
object MetadataStore {

  /** Build the relational side of the storage module. */
  def build(patches: Dataset[PatchRec]): Dataset[PatchMeta] = {
    val spark = patches.sparkSession
    import spark.implicits._
    patches.map(p => PatchMeta(p.patchId, p.frameId, p.px, p.py, p.pw, p.ph, p.isObject)).cache()
  }

  /** Resolve search hits to the store's boxes by patch id: one narrow
    * Spark job that keeps the hits' metadata rows (no join, no shuffle).
    * The output follows the order of the input hits (descending score);
    * hits with no metadata row are dropped.
    */
  def resolve(meta: Dataset[PatchMeta], hits: Seq[SearchHit]): Seq[Candidate] = {
    if (hits.isEmpty) return Seq.empty
    val ids = hits.map(_.patchId).toArray.sorted
    val byId = Scans.narrowById(meta, "patchId", ids)
      .collect()
      .map(m => m.patchId -> m)
      .toMap
    hits.flatMap(h => byId.get(h.patchId).map(m =>
      Candidate(h.patchId, m.frameId, h.score, BBox(m.px, m.py, m.pw, m.ph))))
  }
}

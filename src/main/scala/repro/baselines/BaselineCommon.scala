package repro.baselines

import org.apache.spark.sql.Dataset
import repro.eval.Detection
import repro.util.Rng
import repro.vit.BBox
import repro.video.{FrameRec, ObjRec}

/** Shared helpers for the baseline behavioural models. */
object BaselineCommon {

  /** The `k` best of a baseline's (frameId, score, box) rows: descending
    * score, ties toward the smaller frame id, then in collected order.
    */
  def topK(rows: Dataset[(Long, Double, BBox)], k: Int): Seq[Detection] =
    rows.collect()
      .map { case (fid, s, box) => Detection(fid, s, box) }
      .sortBy(d => (-d.score, d.frameId))
      .take(k)
      .toSeq

  /** The visually dominant object of a frame (largest area). */
  def largestObject(fr: FrameRec): Option[ObjRec] =
    if (fr.objects.isEmpty) None else Some(fr.objects.maxBy(o => (o.w * o.h, -o.objId)))

  /** Small deterministic score jitter in [-0.5, 0.5). */
  def jitter(key: Long, salt: Long): Double = Rng.uniform(key, salt) - 0.5
}

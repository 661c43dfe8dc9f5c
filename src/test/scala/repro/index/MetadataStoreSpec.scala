package repro.index

import repro.{Oracle, SparkSpec}
import repro.core.{AnnVariant, Lovo}
import repro.encoder.TextEncoder
import repro.testkit.Fixtures
import repro.vit.BBox

class MetadataStoreSpec extends SparkSpec {

  /** A hit as the vector store returns it; `resolve` ignores its box. */
  private def hit(patchId: Long, frameId: Long, score: Double): SearchHit =
    SearchHit(patchId, frameId, score, BBox(0, 0, 0, 0))

  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(3, 40, 32)).cache()
  }
  private lazy val meta = MetadataStore.build(patches)

  test("one metadata row per patch") {
    assert(meta.count() == patches.count())
  }

  test("resolve preserves hit order and attaches the right box") {
    val sample = patches.take(5)
    val hits = sample.zipWithIndex.map { case (p, i) =>
      hit(p.patchId, p.frameId, 10.0 - i)
    }.toSeq
    val resolved = MetadataStore.resolve(meta, hits)
    assert(resolved.map(_.patchId) == hits.map(_.patchId))
    assert(resolved.map(_.score) == hits.map(_.score))
    for ((c, p) <- resolved.zip(sample)) {
      assert(c.frameId == p.frameId)
      assert(c.box.x == p.px && c.box.y == p.py && c.box.w == p.pw && c.box.h == p.ph)
    }
  }

  test("unknown patch ids are silently dropped") {
    val resolved = MetadataStore.resolve(meta, Seq(hit(-999L, 0L, 1.0)))
    assert(resolved.isEmpty)
  }

  test("resolve of empty hits is empty without Spark work") {
    assert(MetadataStore.resolve(meta, Seq.empty).isEmpty)
  }

  test("the metadata equi-join matches DuckDB (oracle)") {
    import spark.implicits._
    val hits = patches.take(7).zipWithIndex.map { case (p, i) =>
      hit(p.patchId, p.frameId, 1.0 + i)
    }.toSeq :+ hit(-999L, 0L, 0.5)
    val resolved = MetadataStore.resolve(meta, hits)
      .map(c => (c.patchId.toString, c.frameId.toString, c.score, c.box.x, c.box.h))
      .toDF("patchId", "frameId", "score", "px", "ph")
    Oracle.assertEquivalent(
      resolved,
      """SELECT m.patchId AS patchId, m.frameId AS frameId,
        |       CAST(h.score AS DOUBLE) AS score,
        |       CAST(m.px AS DOUBLE) AS px, CAST(m.ph AS DOUBLE) AS ph
        |FROM meta m JOIN hits h ON m.patchId = h.patchId""".stripMargin,
      "meta" -> meta.toDF().select(
        $"patchId".cast("string") as "patchId",
        $"frameId".cast("string") as "frameId",
        $"px".cast("string") as "px",
        $"ph".cast("string") as "ph"),
      "hits" -> hits.map(h => (h.patchId.toString, h.score.toString)).toDF("patchId", "score"))
  }

  test("every fast-search hit carries the box of its metadata row (DuckDB join by patchId)") {
    import spark.implicits._
    val b = Fixtures.cityscapes
    val rows = for {
      spec <- b.queries
      variant <- AnnVariant.all
    } yield {
      val k = math.min(b.lcfg.retrievalMultiplier.toLong * spec.nPos, b.build.counts.entries).toInt
      val hnsw = if (variant == AnnVariant.Hnsw) Some(b.hnsw._1) else None
      val (cands, _) = Lovo.fastSearch(b.build, TextEncoder.parse(spec.text), k, variant, hnsw)
      assert(cands.size == k, s"${spec.id} ${AnnVariant.name(variant)}")
      cands.map(c => (spec.id, AnnVariant.name(variant), c.patchId.toString, c.frameId.toString,
        c.box.x.toString, c.box.y.toString, c.box.w.toString, c.box.h.toString))
    }
    val cols = Seq("query", "variant", "patchId", "frameId", "px", "py", "pw", "ph")
    val hits = rows.flatten.toDF(cols: _*)
    // Both sides print the doubles with Double.toString, so equal strings
    // are equal values.
    val store = b.build.meta.collect().toSeq.map(m => (m.patchId.toString, m.frameId.toString,
      m.px.toString, m.py.toString, m.pw.toString, m.ph.toString))
      .toDF("patchId", "frameId", "px", "py", "pw", "ph")
    Oracle.assertEquivalent(
      hits,
      """SELECT h.query AS query, h.variant AS variant, m.patchId AS patchId,
        |       m.frameId AS frameId, m.px AS px, m.py AS py, m.pw AS pw, m.ph AS ph
        |FROM hits h JOIN meta m ON h.patchId = m.patchId""".stripMargin,
      "hits" -> hits.select($"query", $"variant", $"patchId"),
      "meta" -> store)
  }
}

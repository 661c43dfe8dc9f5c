package repro.index

import repro.{Oracle, SparkSpec}
import repro.testkit.Fixtures

class MetadataStoreSpec extends SparkSpec {

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
      SearchHit(p.patchId, p.frameId, 10.0 - i)
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
    val resolved = MetadataStore.resolve(meta, Seq(SearchHit(-999L, 0L, 1.0)))
    assert(resolved.isEmpty)
  }

  test("resolve of empty hits is empty without Spark work") {
    assert(MetadataStore.resolve(meta, Seq.empty).isEmpty)
  }

  test("the metadata equi-join matches DuckDB (oracle)") {
    import spark.implicits._
    val hits = patches.take(7).zipWithIndex.map { case (p, i) =>
      SearchHit(p.patchId, p.frameId, 1.0 + i)
    }.toSeq :+ SearchHit(-999L, 0L, 0.5)
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
}

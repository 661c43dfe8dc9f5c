package repro.util

import repro.SparkSpec
import repro.index.PatchMeta

class ScansSpec extends SparkSpec {

  private lazy val rows = (0L until 200L).map(i =>
    PatchMeta(patchId = 1000L + i, frameId = i / 4, px = i, py = 2.0 * i, pw = 3, ph = 4,
      isObject = i % 2 == 0))

  test("narrowById keeps exactly the rows whose id is listed, in at most defaultParallelism tasks") {
    import spark.implicits._
    val ds = spark.createDataset(rows).repartition(16).cache()
    try {
      val ids = Array(1003L, 1050L, 1051L, 1199L, 5000L)
      val got = Scans.narrowById(ds, "patchId", ids)
      assert(got.getNumPartitions <= spark.sparkContext.defaultParallelism)
      assert(got.collect().sortBy(_.patchId).toSeq == rows.filter(r => ids.contains(r.patchId)))
      assert(Scans.narrowById(ds, "frameId", Array(7L)).collect().map(_.patchId).sorted.toSeq ==
        Seq(1028L, 1029L, 1030L, 1031L))
      assert(Scans.narrowById(ds, "patchId", Array.empty[Long]).collect().isEmpty)
    } finally ds.unpersist()
  }

  test("narrowById decodes by column name when the stored column order differs") {
    import spark.implicits._
    val reordered = spark.createDataset(rows).toDF()
      .select($"ph", $"isObject", $"frameId", $"pw", $"patchId", $"py", $"px")
      .as[PatchMeta].cache()
    try {
      val ids = Array(1010L, 1011L, 1150L)
      assert(Scans.narrowById(reordered, "patchId", ids).collect().sortBy(_.patchId).toSeq ==
        rows.filter(r => ids.contains(r.patchId)))
    } finally reordered.unpersist()
  }

  test("narrowById rejects a column that is not a Long") {
    import spark.implicits._
    val ds = spark.createDataset(rows)
    intercept[IllegalArgumentException](Scans.narrowById(ds, "px", Array(1L)))
    intercept[IllegalArgumentException](Scans.narrowById(ds, "nope", Array(1L)))
  }
}

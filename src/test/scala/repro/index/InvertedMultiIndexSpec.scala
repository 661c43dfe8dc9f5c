package repro.index

import repro.{Oracle, SparkSpec}
import repro.pq.ProductQuantizer
import repro.testkit.Fixtures

class InvertedMultiIndexSpec extends SparkSpec {

  private lazy val patches = {
    import spark.implicits._
    spark.createDataset(Fixtures.clusteredPatches(6, 80, 32)).cache()
  }
  private lazy val pq = ProductQuantizer.train(
    { import spark.implicits._; patches.map(_.emb).rdd }, P = 4, m = 8, M = 8, iters = 5)
  private lazy val index = InvertedMultiIndex.build(patches, pq, nPartitions = 4)

  test("total equals the number of stored vectors") {
    assert(index.total == patches.count())
  }

  test("cell directory counts sum to total") {
    assert(index.cellDirectory.values.sum == index.total)
    assert(index.nCells == index.cellDirectory.size)
    assert(index.nCells >= 1)
  }

  test("entries' codes match pq.encode of their embedding") {
    val sample = index.entries.take(100)
    assert(sample.forall(e => e.codes.toSeq == pq.encode(e.emb).toSeq))
    assert(sample.forall(e => e.cellId == pq.cellId(e.codes)))
  }

  test("clustered vectors concentrate into few cells") {
    // 6 clusters in 4096 possible cells: the populated-cell count must be
    // well below the vector count (the point of the inverted structure),
    // and the biggest posting lists must hold many vectors each.
    assert(index.nCells < index.total / 2, s"nCells=${index.nCells}, total=${index.total}")
    val topPostings = index.cellDirectory.values.toSeq.sorted.reverse.take(6)
    assert(topPostings.forall(_ >= 10), s"top posting sizes: $topPostings")
  }

  test("posting-list sizes match a DuckDB GROUP BY (oracle)") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val entriesDf = index.entries.toDF
      .select($"cellId".cast("string") as "cellId", $"patchId".cast("string") as "patchId")
    val sparkCounts = index.entries.toDF.groupBy($"cellId").count()
      .select($"cellId".cast("string") as "cellId", $"count".cast("string") as "n")
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT cellId, CAST(COUNT(*) AS VARCHAR) AS n FROM entries GROUP BY cellId",
      "entries" -> entriesDf)
  }

  test("cell directory equals the per-cell entry counts") {
    val perCell = index.entries.collect().groupBy(_.cellId).map { case (c, es) => c -> es.length.toLong }
    assert(index.cellDirectory == perCell)
  }

  test("build is deterministic") {
    val again = InvertedMultiIndex.build(patches, pq, nPartitions = 4)
    assert(again.cellDirectory == index.cellDirectory)
    assert(again.total == index.total)
  }
}

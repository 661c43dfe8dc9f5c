package repro

import org.apache.spark.sql.functions._
import repro.index.MetadataStore
import repro.testkit.Fixtures

/** The DuckDB oracle's own failure paths, over a LOVO metadata table: the
  * index suites rely on it rejecting a wrong Spark result and a
  * mismatched column set.
  */
class OracleSpec extends SparkSpec {

  private lazy val meta = {
    import spark.implicits._
    MetadataStore.build(spark.createDataset(Fixtures.clusteredPatches(3, 40, 32)))
      .select($"patchId".cast("string") as "patchId", $"frameId".cast("string") as "frameId")
      .cache()
  }

  private val perFrame =
    "SELECT frameId, CAST(COUNT(*) AS DOUBLE) AS cnt FROM meta GROUP BY frameId"

  test("oracle catches a wrong result") {
    import spark.implicits._
    def counts(extra: Int) =
      meta.groupBy($"frameId").agg((count(lit(1)) + extra).cast("double") as "cnt")
    Oracle.assertEquivalent(counts(0), perFrame, "meta" -> meta)
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(counts(1), perFrame, "meta" -> meta)
    }
  }

  test("oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = meta.select($"frameId").distinct()
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df,
        "SELECT frameId AS other FROM meta GROUP BY frameId",
        "meta" -> meta)
    }
  }
}

package repro.util

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.catalyst.encoders.encoderFor
import org.apache.spark.sql.types.LongType

/** The query layers' access path to the cached Datasets. */
object Scans {

  /** The rows of a cached Dataset as one narrow stage of at most
    * `defaultParallelism` tasks. A query-time job over a few thousand
    * cached rows costs what its tasks cost, not what its data costs, so
    * the stored partitions are coalesced (no shuffle) rather than read one
    * task each. `Dataset.rdd` reads the in-memory cache and is built once
    * per Dataset; the view itself is not cached, and typed Dataset
    * operators are avoided because they plan and serialize per query.
    */
  def narrow[T](ds: Dataset[T]): RDD[T] =
    ds.rdd.coalesce(ds.sparkSession.sparkContext.defaultParallelism)

  /** The rows of a cached Dataset whose `Long` column `idColumn` is in
    * the sorted `ids`, as one narrow stage like [[narrow]]. The id is
    * read from the cached row and only the kept rows are turned into
    * objects, so a lookup of a few rows does not decode the others. The
    * rows are the Dataset's physical rows (built once per Dataset, like
    * `Dataset.rdd`), decoded by name against its columns.
    */
  def narrowById[T](ds: Dataset[T], idColumn: String, ids: Array[Long]): RDD[T] = {
    val ordinal = ds.schema.fieldIndex(idColumn)
    require(ds.schema(ordinal).dataType == LongType, s"$idColumn is not a Long column")
    val enc = encoderFor(ds.encoder).resolveAndBind(ds.queryExecution.analyzed.output)
    implicit val tag: ClassTag[T] = ds.encoder.clsTag
    ds.queryExecution.toRdd
      .coalesce(ds.sparkSession.sparkContext.defaultParallelism)
      .mapPartitions { rows =>
        val fromRow = enc.createDeserializer()
        rows.filter(r => java.util.Arrays.binarySearch(ids, r.getLong(ordinal)) >= 0).map(fromRow)
      }
  }
}

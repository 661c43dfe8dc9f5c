package repro.util

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset

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
}

package repro.jobs

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.eval.{Bundle, Harness}
import repro.eval.tables._

/** `spark-submit --class repro.jobs.TablesJob repro.jar <table1..table7|all> [scale]`
  * renders the selected evaluation tables, prints them and writes each
  * under results/. A Spark session starts only when a selected table
  * needs one. Tables share one bundle per dataset and keyframe setting,
  * built on first use and unpersisted after the last selected table that
  * reads it.
  */
object TablesJob {

  /** A bundle a table reads: the dataset, indexed with keyframes only or
    * with every raw frame.
    */
  final case class BundleKey(dataset: String, keyOnly: Boolean = true)

  /** One evaluation table: its output name, the bundles it reads and its
    * renderer over the session, the scale and those bundles. Tables that
    * read no bundle need no Spark and ignore the renderer arguments.
    */
  final case class Table(name: String, bundles: Seq[BundleKey],
                         render: (SparkSession, Double, BundleKey => Bundle) => String) {
    def needsSpark: Boolean = bundles.nonEmpty
  }

  private val table4Bundles =
    for (keyOnly <- Seq(true, false); ds <- Seq("cityscapes", "bellevue")) yield BundleKey(ds, keyOnly)

  /** Every table, in the order `all` publishes them. */
  val tables: Seq[Table] = Seq(
    Table("table2", Nil, (_, _, _) => TableII.render(TableII.run())),
    Table("table6", Nil, (_, _, _) => TableVI.render(TableVI.run())),
    Table("table1", Seq(BundleKey("bellevue")), (s, x, b) =>
      TableI.render(TableI.run(s, x, Some(b(BundleKey("bellevue")))))),
    Table("table3", TableIII.datasets.map(BundleKey(_)), (s, x, b) =>
      TableIII.render(TableIII.run(s, x, TableIII.datasets.map(d => d -> b(BundleKey(d))).toMap))),
    Table("table4", table4Bundles, (s, x, b) => {
      def byDs(keyOnly: Boolean) =
        table4Bundles.filter(_.keyOnly == keyOnly).map(k => k.dataset -> b(k)).toMap
      TableIV.render(TableIV.run(s, x, byDs(keyOnly = true), byDs(keyOnly = false)))
    }),
    Table("table5", Seq(BundleKey("cityscapes")), (s, x, b) =>
      TableV.render(TableV.run(s, x, Some(b(BundleKey("cityscapes")))))),
    Table("table7", Seq(BundleKey("activitynet")), (s, x, b) =>
      TableVII.render(TableVII.run(s, x, Some(b(BundleKey("activitynet")))))))

  /** The tables `name` selects (one table, or `all`); rejects unknown names. */
  def select(name: String): Seq[Table] = {
    val picked = if (name == "all") tables else tables.filter(_.name == name)
    require(picked.nonEmpty,
      s"unknown table '$name' (expected ${tables.map(_.name).sorted.mkString(", ")} or all)")
    picked
  }

  /** For each selected table, the bundles that no later selected table
    * reads: they are unpersisted once it is published.
    */
  def releases(selected: Seq[Table]): Seq[Seq[BundleKey]] =
    selected.indices.map { i =>
      val later = selected.drop(i + 1).flatMap(_.bundles).toSet
      selected(i).bundles.filterNot(later)
    }

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: TablesJob <table1..table7|all> [scale]")
    val selected = select(args(0))
    val scale = JobSession.scaleArg(args.tail)
    val spark =
      if (selected.exists(_.needsSpark)) Some(JobSession.spark(s"lovo-${args(0)}")) else None
    val built = mutable.Map[BundleKey, Bundle]()
    def bundle(key: BundleKey): Bundle = built.getOrElseUpdate(key,
      Harness.bundle(spark.get, key.dataset, scale, keyOnly = key.keyOnly))
    try for ((t, done) <- selected.zip(releases(selected))) {
      TableFmt.publish(t.name, t.render(spark.orNull, scale, bundle))
      done.foreach(key => built.remove(key).foreach(_.build.unpersist()))
    }
    finally spark.foreach(_.stop())
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.tables._

/** `spark-submit --class repro.jobs.TablesJob repro.jar <table1..table7|all> [scale]`
  * renders the selected evaluation tables, prints them and writes each
  * under results/. A Spark session starts only when a selected table
  * needs one.
  */
object TablesJob {

  /** One evaluation table: its output name and its renderer at a scale.
    * Tables that need no Spark ignore both renderer arguments.
    */
  final case class Table(name: String, needsSpark: Boolean,
                         render: (SparkSession, Double) => String)

  /** Every table, in the order `all` publishes them. */
  val tables: Seq[Table] = Seq(
    Table("table2", needsSpark = false, (_, _) => TableII.render(TableII.run())),
    Table("table6", needsSpark = false, (_, _) => TableVI.render(TableVI.run())),
    Table("table1", needsSpark = true, (s, x) => TableI.render(TableI.run(s, x))),
    Table("table3", needsSpark = true, (s, x) => TableIII.render(TableIII.run(s, x))),
    Table("table4", needsSpark = true, (s, x) => TableIV.render(TableIV.run(s, x))),
    Table("table5", needsSpark = true, (s, x) => TableV.render(TableV.run(s, x))),
    Table("table7", needsSpark = true, (s, x) => TableVII.render(TableVII.run(s, x))))

  /** The tables `name` selects (one table, or `all`); rejects unknown names. */
  def select(name: String): Seq[Table] = {
    val picked = if (name == "all") tables else tables.filter(_.name == name)
    require(picked.nonEmpty,
      s"unknown table '$name' (expected ${tables.map(_.name).sorted.mkString(", ")} or all)")
    picked
  }

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: TablesJob <table1..table7|all> [scale]")
    val selected = select(args(0))
    val scale = JobSession.scaleArg(args.tail)
    val spark =
      if (selected.exists(_.needsSpark)) Some(JobSession.spark(s"lovo-${args(0)}")) else None
    try selected.foreach(t => TableFmt.publish(t.name, t.render(spark.orNull, scale)))
    finally spark.foreach(_.stop())
  }
}

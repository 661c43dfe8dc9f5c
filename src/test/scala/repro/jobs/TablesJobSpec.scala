package repro.jobs

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite

class TablesJobSpec extends AnyFunSuite {

  test("each table name selects its own table; all selects every table in publishing order") {
    for (i <- 1 to 7) assert(TablesJob.select(s"table$i").map(_.name) == Seq(s"table$i"))
    assert(TablesJob.select("all").map(_.name) ==
      Seq("table2", "table6", "table1", "table3", "table4", "table5", "table7"))
    assert(TablesJob.tables.filterNot(_.needsSpark).map(_.name) == Seq("table2", "table6"))
  }

  test("unknown table names are rejected before any session starts") {
    for (name <- Seq("table8", "table0", "Table4", "tables", ""))
      intercept[IllegalArgumentException](TablesJob.select(name))
    intercept[IllegalArgumentException](TablesJob.main(Array("table9", "0.1")))
    intercept[IllegalArgumentException](TablesJob.main(Array.empty))
  }

  test("main publishes a Spark-free table under the results directory") {
    val dir = Files.createTempDirectory("tables-job")
    val prev = sys.props.get("repro.results.dir")
    sys.props("repro.results.dir") = dir.toString
    try TablesJob.main(Array("table2"))
    finally prev match {
      case Some(p) => sys.props("repro.results.dir") = p
      case None    => sys.props -= "repro.results.dir"
    }
    val out = new String(Files.readAllBytes(dir.resolve("table2.txt")), "UTF-8")
    assert(out.startsWith("== ") && out.contains("Q2.2"))
  }
}

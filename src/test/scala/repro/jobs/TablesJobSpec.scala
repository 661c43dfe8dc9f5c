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

  test("all reads each of its seven bundles through one build, released after its last table") {
    import TablesJob.BundleKey
    val all = TablesJob.select("all")
    val keys = all.flatMap(_.bundles).distinct
    assert(keys.size == 7)
    assert(keys.count(!_.keyOnly) == 2)
    val released = TablesJob.releases(all)
    assert(released.flatten.sorted(Ordering.by((k: BundleKey) => (k.dataset, k.keyOnly))) ==
      keys.sorted(Ordering.by((k: BundleKey) => (k.dataset, k.keyOnly))), "each bundle released once")
    for ((t, i) <- all.zipWithIndex; key <- released(i)) {
      assert(t.bundles.contains(key), s"${t.name} releases $key it does not read")
      assert(!all.drop(i + 1).exists(_.bundles.contains(key)), s"$key released before a later reader")
    }
    assert(TablesJob.releases(TablesJob.select("table5")) == Seq(Seq(BundleKey("cityscapes"))))
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

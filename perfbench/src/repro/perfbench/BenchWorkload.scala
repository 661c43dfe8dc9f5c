package repro.perfbench

import repro.core.LovoConfig
import repro.encoder.TextEncoder
import repro.eval.{QuerySpec, Workloads}
import repro.video.{DatasetConfig, Datasets, PlantSpec}

/** What a workload's timed operation is. */
sealed trait OpKind
object OpKind {
  /** `Lovo.fastSearch` (IVF-PQ, no rerank). */
  case object FastSearch extends OpKind
  /** `Lovo.query` (IVF-PQ then cross-modal rerank). */
  case object TwoStage extends OpKind
  /** `Lovo.build` then `Lovo.buildHnsw`. */
  case object Ingest extends OpKind
}

/** One workload query with its retrieval size. */
final case class BenchQuery(spec: QuerySpec, k: Int) {
  def parsed: TextEncoder.ParsedQuery = TextEncoder.parse(spec.text)
}

/** A workload's generated inputs. The corpus and query order follow from
  * the seed; the program sees only these inputs.
  */
final case class BenchWorkload(
    name: String,
    kind: OpKind,
    scale: Double,
    dataset: DatasetConfig,
    specs: Seq[PlantSpec],
    queries: Seq[BenchQuery], // in the seeded round-robin order
    cfg: LovoConfig)

object BenchWorkload {

  val names: Seq[String] = Seq("fast-city", "twostage-anet", "ingest-city")

  def apply(name: String, seed: Long): BenchWorkload = name match {
    case "fast-city"     => make(name, OpKind.FastSearch, "cityscapes", 0.3, seed)
    case "twostage-anet" => make(name, OpKind.TwoStage, "activitynet", 0.5, seed)
    case "ingest-city"   => make(name, OpKind.Ingest, "cityscapes", 0.1, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${names.mkString(", ")})")
  }

  /** Seed 0 is the canonical corpus. Any other seed renames the dataset,
    * which re-keys every random draw of the synthetic video generator; the
    * planted query specs stay the same. The seed also permutes the order in
    * which the closed loop cycles through the queries.
    */
  private def make(name: String, kind: OpKind, dataset: String, scale: Double,
                   seed: Long): BenchWorkload = {
    val base = Datasets.byName(dataset).scaled(scale)
    val cfg = LovoConfig()
    val ds = if (seed == 0L) base else base.copy(name = s"${base.name}-seed$seed")
    val order = new scala.util.Random(seed).shuffle(Workloads.forDataset(dataset))
    BenchWorkload(name, kind, scale, ds, Workloads.plantSpecsFor(dataset),
      order.map(q => BenchQuery(q, cfg.retrievalMultiplier * q.nPos)), cfg)
  }
}

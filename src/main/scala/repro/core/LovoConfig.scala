package repro.core

import repro.rerank.RerankParams
import repro.vit.SummaryParams

/** Which vector-index variant serves the fast search (Table V). */
sealed trait AnnVariant
object AnnVariant {
  /** Quantization-based inverted multi-index — the paper's default. */
  case object IvfPq extends AnnVariant
  /** Exhaustive exact scan. */
  case object Bf extends AnnVariant
  /** Graph-based index. */
  case object Hnsw extends AnnVariant
  val all: Seq[AnnVariant] = Seq(Bf, IvfPq, Hnsw)
  def name(v: AnnVariant): String = v match {
    case IvfPq => "IVF-PQ"; case Bf => "BF"; case Hnsw => "HNSW"
  }
}

/** All tunables of the LOVO pipeline (DESIGN.md §6). */
final case class LovoConfig(
    // product quantization / inverted multi-index
    pqSubspaces: Int = 4,
    pqSubdim: Int = 8,
    pqCentroids: Int = 32,
    kmeansIters: Int = 8,
    topA: Int = 4,
    rescoreFactor: Int = 20,
    scanFraction: Double = 0.35,
    // hnsw variant
    hnswM: Int = 8,
    hnswEfConstruction: Int = 64,
    hnswEfSearch: Int = 64,
    // encoders
    summary: SummaryParams = SummaryParams(),
    rerank: RerankParams = RerankParams(),
    // retrieval size policy: k = multiplier x expected result count
    // (paper §VII-A evaluates the top 10x-ground-truth retrieved objects)
    retrievalMultiplier: Int = 10,
    indexPartitions: Int = 16) {
  require(pqSubspaces * pqSubdim == repro.encoder.SemanticSpace.Dp,
    s"PQ dims ${pqSubspaces}x$pqSubdim must equal D'=${repro.encoder.SemanticSpace.Dp}")
  require(pqCentroids >= 1, s"pqCentroids must be >= 1, got $pqCentroids")
  require(kmeansIters >= 1, s"kmeansIters must be >= 1, got $kmeansIters")
  require(rescoreFactor > 0, s"rescoreFactor must be > 0, got $rescoreFactor")
  require(scanFraction > 0.0 && scanFraction <= 1.0,
    s"scanFraction must be in (0, 1], got $scanFraction")
  // the level multiplier is 1 / ln(hnswM): hnswM = 1 puts every node on every level
  require(hnswM >= 2, s"hnswM must be >= 2, got $hnswM")
  require(hnswEfConstruction >= 1, s"hnswEfConstruction must be >= 1, got $hnswEfConstruction")
  require(hnswEfSearch >= 1, s"hnswEfSearch must be >= 1, got $hnswEfSearch")
  require(indexPartitions >= 1, s"indexPartitions must be >= 1, got $indexPartitions")
}

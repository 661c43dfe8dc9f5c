package repro.index

import repro.util.VecOps

/** Exhaustive exact scan — the w/o-ANNS ablation (Table IV) and the
  * LOVO(BF) variant (Table V). The ANN's scan with every stored vector
  * kept and ranked by its exact inner product: one narrow Spark job whose
  * tasks return their local top-k, merged on the driver into the global
  * top-k (ties broken by patch id).
  */
object BruteForce {

  def search(index: InvertedMultiIndex, q: Array[Float], k: Int): (Seq[SearchHit], AnnStats) = {
    require(k > 0, "k must be positive")
    val qn = VecOps.normalize(q)
    val top = AnnSearch.scanTop(index, qn, k)(_ => true, e => VecOps.dot(qn, e.emb))
    val hits = Array.tabulate(top.size)(top.hit).toSeq
    // one exact pass over everything; no second rescore stage
    val stats = AnnStats(
      lutDots = 0L,
      cellsScored = 0L,
      cellsSelected = index.nCells,
      candidates = index.total,
      rescored = 0L)
    (hits, stats)
  }
}

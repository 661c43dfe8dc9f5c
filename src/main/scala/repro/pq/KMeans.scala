package repro.pq

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import repro.util.{Rng, VecOps}

/** Lloyd's iteration (paper §V-B, [32]) over Spark.
  *
  * Trains the P product-quantization codebooks *jointly*. The input
  * partitions are packed once into flat `float[]` blocks (rows in
  * partition order); each iteration is then one narrow job over the
  * blocks, coalesced to `defaultParallelism` tasks, that returns every
  * block's per-cluster vector sums and counts for all subspaces. The
  * driver merges those partials in block order, so the codebooks depend
  * neither on the core count nor on the order in which tasks finish, and
  * no iteration shuffles. Assignment uses Euclidean distance in each
  * m-dimensional subspace, as in the paper.
  */
object KMeans {

  /** Index of the L2-nearest centroid for an m-dim subvector. */
  def nearest(codebook: Array[Array[Float]], v: Array[Float]): Int = {
    var best = 0; var bestD = Double.MaxValue; var c = 0
    while (c < codebook.length) {
      val d = VecOps.l2(codebook(c), v)
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }

  /** One block's Lloyd partial: sums((p*M + c)*m + i) and counts(p*M + c). */
  private final case class Partial(block: Int, sums: Array[Double], counts: Array[Long])

  /** The rows of a packed block, each a fresh `dim`-length array. */
  private def rows(block: Array[Float], dim: Int): Iterator[Array[Float]] =
    Iterator.range(0, block.length / dim)
      .map(r => java.util.Arrays.copyOfRange(block, r * dim, (r + 1) * dim))

  /** Train P codebooks of M centroids each over `vecs` (dim = P*m).
    *
    * Initialization takes a deterministic sample of M vectors (jittered
    * copies pad out degenerate inputs with fewer than M points). The
    * sample is `takeSample` over the input's partitions, so it depends on
    * how `vecs` is partitioned; the iterations that follow do not.
    *
    * @throws IllegalArgumentException on an empty input, or on a vector
    *         whose length is not P*m
    */
  def trainProduct(vecs: RDD[Array[Float]], P: Int, m: Int, M: Int,
                   iters: Int = 8, seed: Long = 42L): Array[Array[Array[Float]]] = {
    require(iters >= 1, "need at least one Lloyd iteration")
    require(M >= 1, "need at least one centroid per codebook")
    val dim = P * m
    val blocks = vecs.mapPartitions { it =>
      val buf = Array.newBuilder[Float]
      it.foreach { v =>
        require(v.length == dim,
          s"PQ training vector has dim ${v.length}, expected $dim (P=$P x m=$m)")
        buf ++= v
      }
      Iterator.single(buf.result())
    }.persist(StorageLevel.MEMORY_ONLY)
    try {
      // The blocks keep the input's partitions and row order, so this is
      // the input's own sample. It is also the job that packs the blocks.
      val sample =
        try blocks.flatMap(rows(_, dim)).takeSample(withReplacement = false, M, seed)
        catch {
          case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] =>
            throw new IllegalArgumentException(e.getCause.getMessage, e)
        }
      require(sample.nonEmpty, "cannot train PQ codebooks on an empty input (no vectors to index)")
      val init: Array[Array[Float]] =
        if (sample.length >= M) sample
        else {
          val pad = Array.tabulate(M - sample.length) { i =>
            val base = sample(i % sample.length)
            Array.tabulate(dim)(j =>
              (base(j) + 0.01 * Rng.gaussian(Rng.mix(seed, i.toLong), j.toLong)).toFloat)
          }
          sample ++ pad
        }

      var centroids: Array[Array[Array[Float]]] =
        Array.tabulate(P, M)((p, c) => VecOps.subvector(init(c), p, m))

      val tagged = blocks
        .mapPartitionsWithIndex((i, it) => it.map(b => (i, b)))
        .coalesce(vecs.sparkContext.defaultParallelism)
      var it = 0
      while (it < iters) {
        val cb = centroids
        val partials = tagged.map { case (i, block) =>
          val sums = new Array[Double](P * M * m)
          val counts = new Array[Long](P * M)
          val sub = new Array[Float](m)
          var off = 0
          while (off < block.length) {
            var p = 0
            while (p < P) {
              System.arraycopy(block, off + p * m, sub, 0, m)
              val cell = p * M + nearest(cb(p), sub)
              counts(cell) += 1
              var j = 0
              while (j < m) { sums(cell * m + j) += sub(j); j += 1 }
              p += 1
            }
            off += dim
          }
          Partial(i, sums, counts)
        }.collect().sortBy(_.block)

        val sums = new Array[Double](P * M * m)
        val counts = new Array[Long](P * M)
        partials.foreach { part =>
          var j = 0
          while (j < sums.length) { sums(j) += part.sums(j); j += 1 }
          j = 0
          while (j < counts.length) { counts(j) += part.counts(j); j += 1 }
        }
        centroids = Array.tabulate(P, M) { (p, c) =>
          val cell = p * M + c
          if (counts(cell) == 0L) centroids(p)(c) // keep empty clusters in place
          else Array.tabulate(m)(j => (sums(cell * m + j) / counts(cell)).toFloat)
        }
        it += 1
      }
      centroids
    } finally blocks.unpersist(blocking = true)
  }
}

package repro.pq

import repro.SparkSpec
import repro.testkit.SparkJobs
import repro.util.{Rng, VecOps}

class ProductQuantizerSpec extends SparkSpec {

  private val P = 4; private val m = 2; private val M = 4

  /** A hand-built quantizer with known codebooks. */
  private def handPq: ProductQuantizer = {
    val cb = Array.tabulate(P, M)((p, c) =>
      Array.tabulate(m)(j => (c + 0.1 * p + 0.01 * j).toFloat))
    ProductQuantizer(P, m, M, cb)
  }

  /** The quantization image of a code word: its centroids, concatenated. */
  private def reconstruction(pq: ProductQuantizer, codes: Array[Int]): Array[Float] =
    codes.indices.flatMap(p => pq.codebooks(p)(codes(p))).toArray

  test("constructor validates codebook shape") {
    intercept[IllegalArgumentException] {
      ProductQuantizer(P, m, M, Array.fill(P - 1, M, m)(0f))
    }
    intercept[IllegalArgumentException] {
      ProductQuantizer(P, m, M, Array.fill(P, M + 1, m)(0f))
    }
  }

  test("encode picks the nearest centroid per subspace") {
    val pq = handPq
    // subvector ~ (2.05, 2.06) in every subspace -> code 2
    val v = Array.tabulate(P * m)(i => (2.05 + 0.01 * (i % m)).toFloat)
    assert(pq.encode(v).toSeq == Seq(2, 2, 2, 2))
  }

  test("cellId and decodeCell are inverse bijections") {
    val pq = handPq
    for (a <- 0 until M; b <- 0 until M; c <- 0 until M; d <- 0 until M) {
      val codes = Array(a, b, c, d)
      assert(pq.decodeCell(pq.cellId(codes)).toSeq == codes.toSeq)
    }
  }

  test("cellId is injective over the code space") {
    val pq = handPq
    val cells = for (a <- 0 until M; b <- 0 until M; c <- 0 until M; d <- 0 until M)
      yield pq.cellId(Array(a, b, c, d))
    assert(cells.distinct.size == cells.size)
  }

  test("cellId rejects out-of-range codes") {
    intercept[IllegalArgumentException] { handPq.cellId(Array(0, 0, 0, M)) }
    intercept[IllegalArgumentException] { handPq.decodeCell(-1L) }
  }

  test("adcScore over LUT equals dot with the reconstruction") {
    val pq = handPq
    val q = Array.tabulate(P * m)(i => (0.3 * Rng.gaussian(1L, i.toLong)).toFloat)
    val v = Array.tabulate(P * m)(i => (1.5 + 0.2 * Rng.gaussian(2L, i.toLong)).toFloat)
    val codes = pq.encode(v)
    val viaLut = pq.adcScore(pq.lut(q), codes)
    val viaRec = VecOps.dot(q, reconstruction(pq, codes))
    assert(math.abs(viaLut - viaRec) < 1e-5)
  }

  test("trained quantizer reduces residual norm vs vector norm") {
    val data = (0 until 800).map(i =>
      VecOps.normalize(Array.tabulate(8)(j => Rng.gaussian(i.toLong, j.toLong).toFloat)))
    val rdd = spark.sparkContext.parallelize(data, 4)
    val pq = ProductQuantizer.train(rdd, P = 4, m = 2, M = 8, iters = 6)
    val meanResidual = data.map(v => VecOps.l2(v, reconstruction(pq, pq.encode(v)))).sum / data.size
    assert(meanResidual < 0.6, s"mean residual norm $meanResidual (unit vectors)")
  }

  test("training runs one narrow job per Lloyd iteration, no shuffle, and uncaches its blocks") {
    val sc = spark.sparkContext
    val cores = sc.defaultParallelism
    val data = (0 until 2000).map(i =>
      Array.tabulate(8)(j => Rng.gaussian(Rng.mix(i.toLong, 8L), j.toLong).toFloat))
    // more input partitions than cores, so a job over the raw input is wide
    val rdd = sc.parallelize(data, 4 * cores)
    def storedBytes = sc.getRDDStorageInfo.map(_.memSize).sum
    def persisted = sc.getPersistentRDDs.keySet
    val (bytes0, ids0) = (storedBytes, persisted)
    val iters = 5
    val (_, work) = SparkJobs.count(sc)(ProductQuantizer.train(rdd, P = 4, m = 2, M = 8, iters = iters))
    assert(work.shuffleWriteBytes == 0L, s"training wrote ${work.shuffleWriteBytes} shuffle bytes")
    assert(work.jobTasks.count(_ <= cores) == iters,
      s"expected $iters jobs of <= $cores tasks, got ${work.jobTasks}")
    assert(work.jobTasks.takeRight(iters).forall(_ <= cores), s"per-job tasks ${work.jobTasks}")
    assert(persisted == ids0)
    assert(storedBytes == bytes0)
  }

  test("lut rejects wrong query dim") {
    intercept[IllegalArgumentException] { handPq.lut(new Array[Float](3)) }
  }
}

package repro.index

import scala.util.hashing.MurmurHash3
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Fixtures
import repro.util.{Rng, VecOps}
import repro.vit.{BBox, PatchRec}

class HnswSpec extends AnyFunSuite {

  private val dim = 32
  private lazy val data = Fixtures.clusteredPatches(5, 60, dim)

  /** A box distinct per patch, so a hit's box shows which node it came from. */
  private def boxOf(p: PatchRec): BBox = BBox(p.patchId.toDouble, p.frameId.toDouble, 1, 2)

  private def freshIndex(seed: Long = 7L): HnswIndex = {
    val g = new HnswIndex(dim, M = 8, efConstruction = 64, seed = seed)
    data.foreach(p => g.add(p.patchId, p.frameId, p.emb, boxOf(p)))
    g
  }

  test("size tracks inserts") {
    val g = freshIndex()
    assert(g.size == data.size)
  }

  test("search on an empty index returns nothing") {
    val g = new HnswIndex(dim)
    assert(g.search(Fixtures.clusterCentre(5, dim, 0), 5).isEmpty)
  }

  test("single-element index returns that element") {
    val g = new HnswIndex(dim)
    g.add(42L, 7L, data.head.emb, BBox(1, 2, 3, 4))
    val hits = g.search(data.head.emb, 3)
    assert(hits.map(_.patchId) == Seq(42L))
    assert(hits.head.frameId == 7L)
    assert(hits.head.box == BBox(1, 2, 3, 4))
  }

  test("recall@10 vs exhaustive search exceeds 0.9") {
    val g = freshIndex()
    val recalls = (0 until 5).map { c =>
      val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, c))
      val exact = data.map(p => (p.patchId, VecOps.dot(q, p.emb)))
        .sortBy(t => (-t._2, t._1)).take(10).map(_._1).toSet
      val got = g.search(q, 10, ef = 64).map(_.patchId).toSet
      exact.intersect(got).size / 10.0
    }
    val mean = recalls.sum / recalls.size
    assert(mean >= 0.9, s"mean recall@10 = $mean")
  }

  test("hits are sorted by descending inner product") {
    val g = freshIndex()
    val hits = g.search(Fixtures.clusterCentre(5, dim, 1), 15)
    assert(hits.sliding(2).forall(w => w.size < 2 || w(0).score >= w(1).score))
    assert(hits.size == 15)
  }

  test("scores are exact inner products") {
    val g = freshIndex()
    val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, 2))
    val byId = data.map(p => p.patchId -> p.emb).toMap
    for (h <- g.search(q, 8))
      assert(math.abs(h.score - VecOps.dot(q, byId(h.patchId))) < 1e-6)
  }

  test("each hit carries the box of its node") {
    val g = freshIndex()
    val byId = data.map(p => p.patchId -> p).toMap
    val hits = (0 until 5).flatMap(c => g.search(Fixtures.clusterCentre(5, dim, c), 20))
    assert(hits.nonEmpty)
    for (h <- hits) assert(h.box == boxOf(byId(h.patchId)), s"patch ${h.patchId}")
  }

  test("a beam that covers the graph returns every node, best first") {
    val g = freshIndex()
    for (c <- 0 until 5; (k, ef) <- Seq((data.size, 8), (5, data.size))) {
      val hits = g.search(Fixtures.clusterCentre(5, dim, c), k, ef)
      val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, c))
      val exact = data.map(p => (p.patchId, VecOps.dot(q, p.emb)))
        .sortBy(t => (-t._2, t._1)).take(k).map(_._1)
      assert(hits.map(_.patchId) == exact, s"k=$k ef=$ef")
    }
  }

  test("construction and search are deterministic in the seed") {
    val a = freshIndex(3L); val b = freshIndex(3L)
    val q = Fixtures.clusterCentre(5, dim, 3)
    assert(a.search(q, 10) == b.search(q, 10))
  }

  test("distance computations are counted and bounded below a full scan per query") {
    val g = freshIndex()
    val before = g.distComps
    g.search(Fixtures.clusterCentre(5, dim, 0), 10, ef = 32)
    val used = g.distComps - before
    assert(used > 0)
    assert(used < data.size * 3L, s"used $used comps for ${data.size} points")
  }

  test("larger ef does not reduce recall") {
    val g = freshIndex()
    val q = VecOps.normalize(Fixtures.clusterCentre(5, dim, 4))
    val exact = data.map(p => (p.patchId, VecOps.dot(q, p.emb)))
      .sortBy(t => (-t._2, t._1)).take(10).map(_._1).toSet
    def recall(ef: Int) =
      g.search(q, 10, ef).map(_.patchId).toSet.intersect(exact).size
    assert(recall(128) >= recall(8))
  }

  test("graph and answers are pinned: build and search distance counts and hits") {
    // 2,400 vectors, so the graph has upper levels. The figures were
    // recorded from the boxed-tuple implementation that preceded the flat
    // arrays; equal counts and hits mean the same graph and traversal.
    val big = Fixtures.clusteredPatches(8, 300, dim)
    val g = new HnswIndex(dim, M = 8, efConstruction = 64, seed = 7L)
    big.foreach(p => g.add(p.patchId, p.frameId, p.emb, boxOf(p)))
    assert(g.distComps == 696783L)
    val queries = (0 until 40).map(i =>
      Array.tabulate(dim)(j => Rng.gaussian(Rng.mix(991L, i.toLong), j.toLong).toFloat))
    // (k, ef) -> (search distance computations, hash of every query's hit ids, first hits)
    val pinned = Seq(
      (10, 64) -> (13575L, -178380475, Seq(2169L, 2186L, 2294L, 2111L, 2290L)),
      (140, 140) -> (19707L, 638845870, Seq(2169L, 2186L, 2294L, 2111L, 2290L)),
      (3, 8) -> (4850L, 131708245, Seq(2186L, 2111L, 2130L)))
    for (((k, ef), (comps, hash, first)) <- pinned) {
      val before = g.distComps
      val hits = queries.map(q => g.search(q, k, ef))
      assert(g.distComps - before == comps, s"k=$k ef=$ef")
      assert(hits.forall(_.size == k))
      assert(hits.head.take(5).map(_.patchId) == first, s"k=$k ef=$ef")
      assert(MurmurHash3.orderedHash(hits.map(h => MurmurHash3.orderedHash(h.map(_.patchId)))) == hash,
        s"k=$k ef=$ef")
    }
  }

  test("dimension mismatch on add is rejected") {
    val g = new HnswIndex(dim)
    intercept[IllegalArgumentException] { g.add(1L, 1L, new Array[Float](dim + 1), BBox(0, 0, 1, 1)) }
  }
}

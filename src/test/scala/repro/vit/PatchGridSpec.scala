package repro.vit

import org.scalatest.funsuite.AnyFunSuite
import repro.video.ObjRec

class PatchGridSpec extends AnyFunSuite {
  import PatchGrid._

  test("grid covers the canvas: 8 x 6 = 48 patches of 32px") {
    assert(Cols == 8 && Rows == 6 && K == 48)
    val total = (0 until K).map(anchor(_).area).sum
    assert(total == 256.0 * 192.0)
  }

  test("anchors tile without overlap") {
    for (i <- 0 until K; j <- 0 until K if i != j)
      assert(anchor(i).iou(anchor(j)) == 0.0, s"anchors $i and $j overlap")
  }

  test("anchor rejects out-of-range indices") {
    intercept[IllegalArgumentException] { anchor(-1) }
    intercept[IllegalArgumentException] { anchor(K) }
  }

  test("patchOf maps a point to the anchor containing it") {
    for (k <- 0 until K) {
      val a = anchor(k)
      assert(patchOf(a.x + a.w / 2, a.y + a.h / 2) == k)
    }
  }

  test("patchOf clamps outside points to the border patches") {
    assert(patchOf(-5, -5) == 0)
    assert(patchOf(1e6, 1e6) == K - 1)
  }

  private def obj(id: Long, cx: Double, cy: Double, w: Double = 20, h: Double = 14) =
    ObjRec(id, Seq("cls:car"), cx - w / 2, cy - h / 2, w, h)

  test("assign puts an isolated object in its centre patch") {
    val o = obj(1, 100, 100)
    val m = PatchGrid.assign(Seq(o))
    assert(m == Map(patchOf(100.0, 100.0) -> o))
  }

  test("assign resolves collisions to a neighbouring patch") {
    val a = obj(1, 100, 100, w = 30); val b = obj(2, 102, 102)
    val m = PatchGrid.assign(Seq(a, b))
    assert(m.size == 2)
    val ka = m.find(_._2 == a).get._1
    val kb = m.find(_._2 == b).get._1
    assert(ka == patchOf(100, 100)) // larger object wins the contested patch
    assert(ka != kb)
  }

  test("assign never places two objects in one patch") {
    val objs = (0 until 30).map(i => obj(i.toLong, 30 + (i % 6) * 2, 30 + (i / 6) * 2))
    val m = PatchGrid.assign(objs)
    assert(m.keys.toSeq.distinct.size == m.size)
  }

  test("assign drops objects when the neighbourhood saturates (paper's fragmentation limit)") {
    // 8 objects whose centres share one patch: centre + 4 neighbours = 5 slots
    val objs = (0 until 8).map(i => obj(100 + i, 100 + i * 0.1, 100))
    val m = PatchGrid.assign(objs)
    assert(m.size <= 5)
    assert(m.size >= 4)
  }

  test("assign is deterministic") {
    val objs = (0 until 12).map(i => obj(i.toLong, 20 + i * 17.0 % 200, 20 + i * 11.0 % 150))
    assert(PatchGrid.assign(objs) == PatchGrid.assign(objs))
  }

  test("horizontal neighbour candidates never wrap rows") {
    // object at the right edge of row 0; a collision must not spill to row 1 col 0
    val a = obj(1, 250, 10); val b = obj(2, 251, 11, w = 10, h = 8)
    val m = PatchGrid.assign(Seq(a, b))
    val ks = m.keys.toSeq
    assert(ks.forall(k => k / Cols <= 1))
    // none of the assigned patches is the row-1 leftmost patch via wrap
    assert(!ks.contains(Cols), s"wrapped to patch $Cols")
  }
}

package repro.vit

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.PropertyChecks

class BBoxSpec extends AnyFunSuite with PropertyChecks {

  private val boxGen: Gen[BBox] = for {
    x <- Gen.chooseNum(0.0, 200.0)
    y <- Gen.chooseNum(0.0, 150.0)
    w <- Gen.chooseNum(1.0, 60.0)
    h <- Gen.chooseNum(1.0, 60.0)
  } yield BBox(x, y, w, h)

  test("iou with itself is 1") {
    forAllGen(boxGen) { b => assert(math.abs(b.iou(b) - 1.0) < 1e-9) }
  }

  test("iou is symmetric") {
    forAllGen2(boxGen, boxGen) { (a, b) =>
      assert(math.abs(a.iou(b) - b.iou(a)) < 1e-12)
    }
  }

  test("iou is within [0, 1]") {
    forAllGen2(boxGen, boxGen) { (a, b) =>
      val i = a.iou(b)
      assert(i >= 0.0 && i <= 1.0)
    }
  }

  test("disjoint boxes have iou 0") {
    assert(BBox(0, 0, 10, 10).iou(BBox(20, 20, 10, 10)) == 0.0)
    assert(BBox(0, 0, 10, 10).iou(BBox(10, 0, 10, 10)) == 0.0) // touching edges
  }

  test("half-overlapping equal boxes have iou 1/3") {
    val a = BBox(0, 0, 10, 10); val b = BBox(5, 0, 10, 10)
    assert(math.abs(a.iou(b) - (50.0 / 150.0)) < 1e-12)
  }

  test("contained box iou equals area ratio") {
    val outer = BBox(0, 0, 20, 20); val inner = BBox(5, 5, 10, 10)
    assert(math.abs(outer.iou(inner) - 100.0 / 400.0) < 1e-12)
  }

  test("corners and area are consistent") {
    forAllGen(boxGen) { b =>
      assert(math.abs(b.x2 - (b.x + b.w)) < 1e-12)
      assert(math.abs(b.y2 - (b.y + b.h)) < 1e-12)
      assert(b.area == b.w * b.h)
    }
  }

  test("negative extents are rejected") {
    intercept[IllegalArgumentException] { BBox(0, 0, -1, 5) }
  }

  test("clamp keeps boxes inside the canvas") {
    forAllGen(boxGen) { b =>
      val shifted = BBox(b.x + 220, b.y + 160, b.w, b.h)
      val c = BBox.clamp(shifted, 256, 192)
      assert(c.x >= 0 && c.y >= 0)
      assert(c.x2 <= 256 + 1e-9 && c.y2 <= 192 + 1e-9)
      assert(c.w == math.min(b.w, 256.0) && c.h == math.min(b.h, 192.0))
    }
  }
}

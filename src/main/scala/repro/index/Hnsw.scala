package repro.index

import repro.util.{Rng, VecOps}
import repro.vit.BBox

/** Hierarchical Navigable Small World graph index — the LOVO(HNSW)
  * variant of Table V (Malkov & Yashunin's algorithm).
  *
  * Vectors are unit-normalized, so maximum inner product equals minimum
  * L2 distance; internally distance = -dot. Level draw is deterministic
  * in (element id, seed), so builds are reproducible. Graph indexes do
  * not shard naturally; like a vector DB's per-segment graphs, the build
  * collects the (small) fp32 embedding column to the driver. Distance
  * computations are counted for the cost model.
  *
  * Storage is flat and primitive: all vectors in one `float[]`, ids and
  * frame ids in `long[]`, the boxes as four values per node in one
  * `double[]`, and per node one `int[]` holding, for each of
  * its levels, a neighbour count followed by cap+1 neighbour slots (a
  * list may exceed its cap by one before it is pruned). Layer searches
  * use an epoch-stamped visited array and binary heaps on parallel
  * `double[]`/`int[]` arrays, ordered by `java.lang.Double.compare` and
  * then node index.
  */
final class HnswIndex(val dim: Int, val M: Int = 8, val efConstruction: Int = 64,
                      val seed: Long = 7L) {
  private val mL = 1.0 / math.log(M.toDouble)
  private val maxM = M
  private val maxM0 = 2 * M

  private var n = 0
  private var ids = new Array[Long](16)
  private var frameIds = new Array[Long](16)
  private var vecs = new Array[Float](16 * dim)
  // x, y, w, h of each node's box
  private var boxes = new Array[Double](16 * 4)
  // links(node): for level 0 then each upper level, [count, cap+1 slots]
  private var links = new Array[Array[Int]](16)
  // visited(node) == epoch marks a node seen by the current layer search
  private var visited = new Array[Int](16)
  private var epoch = 0

  private var entryPoint: Int = -1
  private var topLevel: Int = -1

  private val candidates = new HnswHeap
  private val results = new HnswHeap
  // A layer search's answer, ascending by (distance, node)
  private var foundNodes = new Array[Int](16)
  private var foundDists = new Array[Double](16)
  // shrink's sort buffers: a list holds at most maxM0 + 1 nodes
  private val pruneDists = new Array[Double](maxM0 + 1)
  private val pruneNodes = new Array[Int](maxM0 + 1)

  /** Distance computations performed so far (build + queries). */
  var distComps: Long = 0L

  def size: Int = n

  /** Offset in `links(node)` of a level's count; its slots follow it. */
  private def base(level: Int): Int =
    if (level == 0) 0 else maxM0 + 2 + (level - 1) * (maxM + 2)

  /** -dot(vector of `node`, q(qOff until qOff + dim)). */
  private def dist(node: Int, q: Array[Float], qOff: Int): Double = {
    distComps += 1
    val v = vecs; val off = node * dim
    var s = 0.0; var i = 0
    while (i < dim) { s += v(off + i).toDouble * q(qOff + i); i += 1 }
    -s
  }

  private def drawLevel(id: Long): Int = {
    val u = math.max(Rng.uniform(Rng.mix(id, seed), 0xE1L), 1e-12)
    math.min(12, (-math.log(u) * mL).toInt)
  }

  /** Greedy descent through one layer: from `start`, repeatedly scan the
    * list of the node the pass started from and move to the closest
    * neighbour, until a pass improves nothing.
    */
  private def greedy(q: Array[Float], qOff: Int, start: Int, level: Int): Int = {
    var best = start
    var bestD = dist(best, q, qOff)
    var improved = true
    while (improved) {
      improved = false
      val lst = links(best); val b = base(level); val cnt = lst(b)
      var j = 0
      while (j < cnt) {
        val nb = lst(b + 1 + j)
        val d = dist(nb, q, qOff)
        if (d < bestD) { bestD = d; best = nb; improved = true }
        j += 1
      }
    }
    best
  }

  /** Best-first search within one layer from the first `nEps` nodes of
    * `foundNodes`; leaves up to ef nearest nodes in `foundNodes` and
    * `foundDists`, ascending by distance, and returns their number.
    */
  private def searchLayer(q: Array[Float], qOff: Int, nEps: Int, ef: Int, level: Int): Int = {
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(visited, 0); epoch = 0 }
    epoch += 1
    candidates.clear(); results.clear()
    // candidates pop nearest first: the heap's maximum of (-dist, -node)
    var e = 0
    while (e < nEps) {
      val ep = foundNodes(e)
      if (visited(ep) != epoch) {
        val d = dist(ep, q, qOff)
        visited(ep) = epoch
        candidates.push(-d, -ep)
        results.push(d, ep)
      }
      e += 1
    }
    while (candidates.size > 0) {
      val cd = -candidates.topKey; val c = -candidates.topNode
      candidates.pop()
      if (cd > results.topKey && results.size >= ef) {
        candidates.clear() // nearest remaining candidate cannot improve
      } else {
        val lst = links(c); val b = base(level); val cnt = lst(b)
        var j = 0
        while (j < cnt) {
          val nb = lst(b + 1 + j)
          if (visited(nb) != epoch) {
            visited(nb) = epoch
            val d = dist(nb, q, qOff)
            if (results.size < ef || d < results.topKey) {
              candidates.push(-d, -nb)
              results.push(d, nb)
              if (results.size > ef) results.pop()
            }
          }
          j += 1
        }
      }
    }
    drainResults()
  }

  /** Moves `results` into `foundNodes` and `foundDists`, ascending by
    * (distance, node), and returns their number.
    */
  private def drainResults(): Int = {
    val found = results.size
    if (foundNodes.length < found) {
      foundNodes = new Array[Int](found); foundDists = new Array[Double](found)
    }
    var i = found - 1
    while (i >= 0) {
      foundNodes(i) = results.topNode; foundDists(i) = results.topKey
      results.pop(); i -= 1
    }
    found
  }

  private def append(node: Int, nb: Int, level: Int): Unit = {
    val lst = links(node); val b = base(level)
    lst(b + 1 + lst(b)) = nb
    lst(b) += 1
  }

  /** Prune `node`'s list at `level` to the `cap` closest (simple
    * selection), recomputing every distance; the kept list is ascending
    * by (distance, node).
    */
  private def shrink(node: Int, level: Int, cap: Int): Unit = {
    val lst = links(node); val b = base(level); val cnt = lst(b)
    if (cnt > cap) {
      val ds = pruneDists; val ns = pruneNodes
      var j = 0
      while (j < cnt) { // insertion sort
        val x = lst(b + 1 + j)
        val d = dist(x, vecs, node * dim)
        var k = j
        while (k > 0 && HnswOrder.after(ds(k - 1), ns(k - 1), d, x)) {
          ds(k) = ds(k - 1); ns(k) = ns(k - 1); k -= 1
        }
        ds(k) = d; ns(k) = x
        j += 1
      }
      System.arraycopy(ns, 0, lst, b + 1, cap)
      lst(b) = cap
    }
  }

  private def grow(): Unit = {
    val cap = 2 * ids.length
    ids = java.util.Arrays.copyOf(ids, cap)
    frameIds = java.util.Arrays.copyOf(frameIds, cap)
    vecs = java.util.Arrays.copyOf(vecs, cap * dim)
    boxes = java.util.Arrays.copyOf(boxes, cap * 4)
    links = java.util.Arrays.copyOf(links, cap)
    visited = java.util.Arrays.copyOf(visited, cap)
  }

  def add(id: Long, frameId: Long, v: Array[Float], box: BBox): Unit = {
    require(v.length == dim, s"expected dim $dim, got ${v.length}")
    if (n == ids.length) grow()
    val node = n
    val level = drawLevel(id)
    ids(node) = id; frameIds(node) = frameId
    boxes(4 * node) = box.x; boxes(4 * node + 1) = box.y
    boxes(4 * node + 2) = box.w; boxes(4 * node + 3) = box.h
    System.arraycopy(VecOps.normalize(v), 0, vecs, node * dim, dim)
    links(node) = new Array[Int](base(level + 1))
    n += 1

    if (entryPoint < 0) { entryPoint = node; topLevel = level; return }

    val qOff = node * dim
    var ep = entryPoint
    var lc = topLevel
    // descend greedily through layers above the new node's level
    while (lc > level) { ep = greedy(vecs, qOff, ep, lc); lc -= 1 }
    // connect on layers min(level, topLevel) .. 0
    var l = math.min(level, topLevel)
    foundNodes(0) = ep
    var nEps = 1
    while (l >= 0) {
      nEps = searchLayer(vecs, qOff, nEps, efConstruction, l)
      val cap = if (l == 0) maxM0 else maxM
      var j = 0
      while (j < math.min(maxM, nEps)) {
        val nb = foundNodes(j)
        append(node, nb, l)
        append(nb, node, l)
        shrink(nb, l, cap)
        j += 1
      }
      l -= 1
    }
    if (level > topLevel) { topLevel = level; entryPoint = node }
  }

  /** Top-k maximum-inner-product search; returns hits descending by score.
    * When the beam (`max(ef, k)`) covers the whole graph, the answer is
    * every node, so every node is scored: a traversal would miss a node
    * whose in-links were all pruned.
    */
  def search(q: Array[Float], k: Int, ef: Int = 64): Seq[SearchHit] = {
    if (entryPoint < 0) return Seq.empty
    val qn = VecOps.normalize(q)
    val found =
      if (math.max(ef, k) >= n) {
        results.clear()
        var node = 0
        while (node < n) { results.push(dist(node, qn, 0), node); node += 1 }
        drainResults()
      } else {
        var ep = entryPoint
        var lc = topLevel
        while (lc > 0) { ep = greedy(qn, 0, ep, lc); lc -= 1 }
        foundNodes(0) = ep
        searchLayer(qn, 0, 1, math.max(ef, k), 0)
      }
    Seq.tabulate(math.min(k, found)) { i =>
      val node = foundNodes(i)
      SearchHit(ids(node), frameIds(node), -foundDists(i),
        BBox(boxes(4 * node), boxes(4 * node + 1), boxes(4 * node + 2), boxes(4 * node + 3)))
    }
  }
}

private object HnswOrder {

  /** (d1, n1) sorts after (d2, n2): by `java.lang.Double.compare`, then node. */
  def after(d1: Double, n1: Int, d2: Double, n2: Int): Boolean = {
    val c = java.lang.Double.compare(d1, d2)
    c > 0 || (c == 0 && n1 > n2)
  }
}

/** A binary max-heap of (key, node) pairs on parallel primitive arrays,
  * ordered as [[HnswOrder.after]].
  */
private final class HnswHeap {
  import HnswOrder.after

  private var keys = new Array[Double](64)
  private var nodes = new Array[Int](64)
  var size = 0

  def clear(): Unit = size = 0
  def topKey: Double = keys(0)
  def topNode: Int = nodes(0)

  def push(key: Double, node: Int): Unit = {
    if (size == keys.length) {
      keys = java.util.Arrays.copyOf(keys, 2 * size)
      nodes = java.util.Arrays.copyOf(nodes, 2 * size)
    }
    var i = size
    size += 1
    while (i > 0 && after(key, node, keys((i - 1) / 2), nodes((i - 1) / 2))) {
      val parent = (i - 1) / 2
      keys(i) = keys(parent); nodes(i) = nodes(parent); i = parent
    }
    keys(i) = key; nodes(i) = node
  }

  def pop(): Unit = {
    size -= 1
    val key = keys(size); val node = nodes(size)
    var i = 0
    var done = size == 0
    while (!done) {
      val l = 2 * i + 1
      if (l >= size) done = true
      else {
        val r = l + 1
        val child = if (r < size && after(keys(r), nodes(r), keys(l), nodes(l))) r else l
        if (after(keys(child), nodes(child), key, node)) {
          keys(i) = keys(child); nodes(i) = nodes(child); i = child
        } else done = true
      }
    }
    if (size > 0) { keys(i) = key; nodes(i) = node }
  }
}

object Hnsw {

  /** Build from the stored index entries, with their boxes
    * (deterministic insert order).
    */
  def build(index: InvertedMultiIndex, m: Int = 8, efConstruction: Int = 64,
            seed: Long = 7L): HnswIndex = {
    val rows = index.entries.collect().sortBy(_.patchId)
    val g = new HnswIndex(index.pq.dim, m, efConstruction, seed)
    rows.foreach(e => g.add(e.patchId, e.frameId, e.emb, e.box))
    g
  }

  /** Search wrapper returning the same stats shape as the other variants. */
  def search(g: HnswIndex, q: Array[Float], k: Int, ef: Int = 64): (Seq[SearchHit], AnnStats) = {
    val before = g.distComps
    val hits = g.search(q, k, ef)
    val comps = g.distComps - before
    (hits, AnnStats(lutDots = 0, cellsScored = 0, cellsSelected = 0,
      candidates = comps, rescored = hits.size))
  }
}

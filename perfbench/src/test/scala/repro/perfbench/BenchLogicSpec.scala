package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.distdgl.WorkerSample
import repro.graph.CompactGraph
import repro.metrics.{EdgeCutQuality, EdgePartLoad, VertexCutQuality, VertexPartLoad}

/** The benchmark's own logic: tail selection, self time, output checks. */
class BenchLogicSpec extends AnyFunSuite {

  test("cell_tail_s: with 9 or 10 cells no rank has ten beyond, so the smallest is reported") {
    val nine = Stats.tail((1 to 9).map(_.toDouble))
    assert(nine == Tail(1.0, 100.0 / 9, 8, 9))
    val ten = Stats.tail((1 to 10).reverse.map(_.toDouble))
    assert(ten == Tail(1.0, 10.0, 9, 10))
  }

  test("cell_tail_s: with 100 cells it is the 90th, with exactly ten beyond") {
    val t = Stats.tail(scala.util.Random.shuffle((1 to 100).map(_.toDouble)))
    assert(t == Tail(90.0, 90.0, 10, 100))
    assert(Stats.tail((1 to 11).map(_.toDouble)) == Tail(1.0, 100.0 / 11, 10, 11))
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  private def span(id: Int, parent: Int, start: Long, end: Long) = Span(id, s"s$id", parent, start, end)

  test("self time subtracts the union of direct children, not grandchildren") {
    val spans = Seq(
      span(0, -1, 0, 100),
      span(1, 0, 10, 40), // children 1 and 2 overlap on [30, 40)
      span(2, 0, 30, 60),
      span(3, 1, 15, 25), // grandchild: already inside child 1
      span(4, 0, 90, 120), // runs past its parent's end
    )
    val self = Spans.selfSeconds(spans)
    assert(self(0) == (100 - 50 - 10) / 1e9)
    assert(self(1) == (30 - 10) / 1e9)
    assert(self(2) == 30 / 1e9)
    assert(self(3) == 10 / 1e9)
    assert(Spans.covered(spans.filter(_.parent == 0), 0, 100) == 60)
  }

  test("the tracer records nesting and the disabled tracer records nothing") {
    val t = new Tracer(true, None)
    t.span("cell") { t.span("metrics.edge_cut")(()); t.span("amortize")(()) }
    assert(t.spans.map(s => (s.name, s.parent)).toSet ==
      Set(("cell", -1), ("metrics.edge_cut", 0), ("amortize", 0)))
    val off = new Tracer(false, None)
    assert(off.span("cell")(42) == 42 && off.spans.isEmpty)
  }

  // path 0-1-2-3 plus 0-2: edges e0=(0,1) e1=(1,2) e2=(2,3) e3=(0,2)
  private val g = new CompactGraph(4, Array(0, 1, 2, 0), Array(1, 2, 3, 2), directed = false)

  test("edge-cut recount: a correct quality passes and one corrupted assignment fails one cell") {
    val assign = Array(0, 0, 1, 1)
    // part 0 covers {0,1,2}, part 1 covers {2,3,0}; vertices 0 and 2 have two copies
    val q = EdgeCutQuality(2, 4, 4, 6.0 / 4, 1.0, 1.0,
      Seq(EdgePartLoad(0, 2, 3, 2), EdgePartLoad(1, 2, 3, 2)))
    val cells = Seq.fill(3)(assign.clone())
    assert(cells.forall(a => Check.edgeCut(g, a, 2, q).isEmpty))
    cells(1)(0) = 1
    assert(cells.count(a => Check.edgeCut(g, a, 2, q).nonEmpty) == 1)
  }

  test("vertex-cut recount checks loads, cut ratio and balances") {
    val assign = Array(0, 0, 1, 1)
    val train = Array(true, false, false, true)
    // local edges: e0 in part 0, e2 in part 1; cut: e1, e3
    val q = VertexCutQuality(2, 4, 4, 0.5, 1.0, 1.0,
      Seq(VertexPartLoad(0, 2, 1, 1), VertexPartLoad(1, 2, 1, 1)))
    assert(Check.vertexCut(g, assign, train, 2, q).isEmpty)
    assert(Check.vertexCut(g, Array(0, 1, 1, 1), train, 2, q).nonEmpty)
    assert(Check.vertexCut(g, Array(0, 0, 2, 1), train, 2, q).head.contains("outside"))
  }

  test("sampler invariants: one sample per worker, bounded roots, remote <= input") {
    def w(i: Int, roots: Long = 2, input: Long = 5, remote: Long = 3) =
      WorkerSample(i, roots, Seq(4L, 6L), Seq(roots, 4L, 5L), 1, input, remote)
    assert(Check.samples(Seq(w(0), w(1)), 2, 3, 2).isEmpty) // ⌈3/2⌉ = 2 roots allowed
    assert(Check.samples(Seq(w(0), w(1, roots = 3)), 2, 3, 2).size == 1)
    assert(Check.samples(Seq(w(0), w(1, remote = 6)), 2, 3, 2).size == 1)
    assert(Check.samples(Seq(w(0)), 2, 3, 2).size == 1)
    assert(Check.samples(Seq(w(0), w(1)), 2, 3, 3).size == 2)
  }

  test("simulated times must be positive and finite") {
    assert(Check.positive("epoch", Seq(1.0, 2.0)).isEmpty)
    assert(Check.positive("epoch", Seq(0.0, Double.NaN, Double.PositiveInfinity, 1.0)).size == 3)
  }

  test("seed 0 is the study's seeds") {
    assert(Seeds(0) == Seeds(11, 7, 13))
    assert(Seeds(1) != Seeds(0))
  }
}

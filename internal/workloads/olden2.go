package workloads

import (
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// --- perimeter: quadtree perimeter computation (Olden) ---
//
// Profile: a very large number of small same-type heap allocations and a
// deeply recursive traversal that spills bounds registers across frames
// (stbnd/ldbnd traffic). The subheap allocator's cheap pool path makes
// the instrumented run *faster* than baseline (Figure 10's negative
// overhead).

// Node types here and below are package-level and shared across runs:
// read-only after init (see the package comment's concurrency contract).
var perimNodeT = layout.StructOf("quad",
	layout.F("color", layout.Long),
	layout.F("child", layout.ArrayOf(layout.PointerTo(nil), 4)))

var (
	perimNodeColor = mustField(perimNodeT, "color")
)

func runPerimeter(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	depth := 6
	for s := scale; s > 1; s /= 2 {
		depth++
	}

	var build func(d int) (rt.Ptr, machine.BoundsReg)
	build = func(d int) (rt.Ptr, machine.BoundsReg) {
		if e.err != nil {
			return 0, machine.Cleared
		}
		n := e.malloc(perimNodeT, 1)
		if d == 0 || e.randn(8) == 0 {
			e.stf(n.P, n.B, perimNodeColor, e.randn(2)) // leaf: black/white
			return n.P, n.B
		}
		e.stf(n.P, n.B, perimNodeColor, 2) // grey
		for k := int64(0); k < 4; k++ {
			c, cb := build(d - 1)
			e.stp(e.gep(n.P, 8+8*k, n.B), n.B, c, cb)
		}
		return n.P, n.B
	}
	root, rootB := build(depth)

	var perim func(p rt.Ptr, b machine.BoundsReg, size uint64) uint64
	perim = func(p rt.Ptr, b machine.BoundsReg, size uint64) uint64 {
		if p == 0 || e.err != nil {
			return 0
		}
		color := e.ldf(p, b, perimNodeColor)
		if color != 2 {
			e.tick(3)
			return color * size
		}
		// Recursive descent: spill/reload this frame's bounds register
		// (callee-saved traffic, §4.1.2).
		mark := e.r.StackMark()
		slot, serr := e.r.StackRaw(16)
		e.fail(serr)
		e.fail(e.r.SpillBounds(slot, b))
		var total uint64
		for k := int64(0); k < 4; k++ {
			c, cb := e.ldp(e.gep(p, 8+8*k, b), b)
			total += perim(c, cb, size/2)
		}
		rb, err := e.r.ReloadBounds(slot)
		e.fail(err)
		_ = rb
		_ = e.r.StackRelease(mark) // mark comes from StackMark above; cannot fail
		return total
	}
	e.mix(perim(root, rootB, 1<<uint(depth)))
	return e.sum, e.err
}

// --- power: power-system pricing (Olden) ---
//
// Profile: a shallow customer tree built once, then overwhelmingly
// numeric computation — the paper measures essentially zero overhead
// (1.00x): promotes are rare relative to compute.

var powerNodeT = layout.StructOf("power_node",
	layout.F("demand", layout.Long),
	layout.F("price", layout.Long),
	layout.F("nkids", layout.Long),
	layout.F("kids", layout.ArrayOf(layout.PointerTo(nil), 8)))

var (
	powerNodeDemand = mustField(powerNodeT, "demand")
	powerNodeNkids  = mustField(powerNodeT, "nkids")
	powerNodePrice  = mustField(powerNodeT, "price")
)

func runPower(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	iters := 8 * scale

	// Three-level tree: root -> 8 laterals -> 8 branches each.
	var build func(d int) (rt.Ptr, machine.BoundsReg)
	build = func(d int) (rt.Ptr, machine.BoundsReg) {
		if e.err != nil {
			return 0, machine.Cleared
		}
		n := e.malloc(powerNodeT, 1)
		e.stf(n.P, n.B, powerNodeDemand, 1+e.randn(100))
		if d > 0 {
			e.stf(n.P, n.B, powerNodeNkids, 8)
			for k := int64(0); k < 8; k++ {
				c, cb := build(d - 1)
				e.stp(e.gep(n.P, 24+8*k, n.B), n.B, c, cb)
			}
		}
		return n.P, n.B
	}
	root, rootB := build(2)

	var visit func(p rt.Ptr, b machine.BoundsReg, price uint64) uint64
	visit = func(p rt.Ptr, b machine.BoundsReg, price uint64) uint64 {
		if p == 0 || e.err != nil {
			return 0
		}
		demand := e.ldf(p, b, powerNodeDemand)
		// The numeric optimization loop: Newton-style iterations, all
		// register compute in the original.
		v := demand
		for i := 0; i < 40; i++ {
			v = (v + price*demand/(v+1)) / 2
			e.tick(6)
		}
		e.stf(p, b, powerNodePrice, v)
		total := v
		nkids := int64(e.ldf(p, b, powerNodeNkids))
		for k := int64(0); k < nkids; k++ {
			c, cb := e.ldp(e.gep(p, 24+8*k, b), b)
			total += visit(c, cb, price)
		}
		return total
	}
	for it := 0; it < iters; it++ {
		e.mix(visit(root, rootB, uint64(it)+1))
	}
	return e.sum, e.err
}

// --- treeadd: recursive tree sum (Olden) ---
//
// Profile: allocation-dominated — build a full binary tree, sum it once.
// Exactly half the child promotes hit NULL (Table 4: 50% valid), and the
// subheap pool's cheap allocation path beats glibc by enough to go
// faster than baseline (Figure 10: 0.61x dynamic instructions).

var treeaddNodeT = layout.StructOf("tree_t",
	layout.F("val", layout.Long),
	layout.F("left", layout.PointerTo(nil)),
	layout.F("right", layout.PointerTo(nil)))

var (
	treeaddNodeVal   = mustField(treeaddNodeT, "val")
	treeaddNodeLeft  = mustField(treeaddNodeT, "left")
	treeaddNodeRight = mustField(treeaddNodeT, "right")
)

func runTreeAdd(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	depth := 11 // 2047 nodes at scale 1
	for s := scale; s > 1; s /= 2 {
		depth++
	}

	var build func(d int) (rt.Ptr, machine.BoundsReg)
	build = func(d int) (rt.Ptr, machine.BoundsReg) {
		if d == 0 || e.err != nil {
			return 0, machine.Cleared
		}
		n := e.malloc(treeaddNodeT, 1)
		e.stf(n.P, n.B, treeaddNodeVal, 1)
		l, lb := build(d - 1)
		rp, rb := build(d - 1)
		e.stpf(n.P, n.B, treeaddNodeLeft, l, lb)
		e.stpf(n.P, n.B, treeaddNodeRight, rp, rb)
		return n.P, n.B
	}
	root, rootB := build(depth)

	var sum func(p rt.Ptr, b machine.BoundsReg) uint64
	sum = func(p rt.Ptr, b machine.BoundsReg) uint64 {
		if p == 0 || e.err != nil {
			return 0
		}
		l, lb := e.ldpf(p, b, treeaddNodeLeft)
		rp, rb := e.ldpf(p, b, treeaddNodeRight)
		return e.ldf(p, b, treeaddNodeVal) + sum(l, lb) + sum(rp, rb)
	}
	e.mix(sum(root, rootB))
	return e.sum, e.err
}

// --- tsp: travelling salesman via closest-point heuristic (Olden) ---
//
// Profile: a balanced tree of cities is flattened into a circular tour
// list; repeated list splices load pointers from memory (valid promotes)
// with modest NULL traffic from the build phase.

var tspNodeT = layout.StructOf("tsp_node",
	layout.F("x", layout.Long),
	layout.F("y", layout.Long),
	layout.F("left", layout.PointerTo(nil)),
	layout.F("right", layout.PointerTo(nil)),
	layout.F("next", layout.PointerTo(nil)))

var (
	tspNodeX    = mustField(tspNodeT, "x")
	tspNodeY    = mustField(tspNodeT, "y")
	tspNodeNext = mustField(tspNodeT, "next")
)

func runTSP(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nCities := 512 * scale

	cities := make([]rt.Obj, nCities)
	for i := range cities {
		cities[i] = e.malloc(tspNodeT, 1)
		e.stf(cities[i].P, cities[i].B, tspNodeX, e.randn(1<<16))
		e.stf(cities[i].P, cities[i].B, tspNodeY, e.randn(1<<16))
	}
	// Chain into an initial tour.
	for i := range cities {
		next := cities[(i+1)%len(cities)]
		e.stpf(cities[i].P, cities[i].B, tspNodeNext, next.P, next.B)
	}

	// 2-opt-ish improvement: walk the tour, compare distances, splice.
	dist := func(a rt.Ptr, ab machine.BoundsReg, b rt.Ptr, bb machine.BoundsReg) uint64 {
		ax := e.ldf(a, ab, tspNodeX)
		ay := e.ldf(a, ab, tspNodeY)
		bx := e.ldf(b, bb, tspNodeX)
		by := e.ldf(b, bb, tspNodeY)
		dx, dy := ax-bx, ay-by
		e.tick(8)
		return dx*dx + dy*dy
	}
	for pass := 0; pass < 12 && e.err == nil; pass++ {
		cur, cb := cities[0].P, cities[0].B
		for i := 0; i < nCities-2 && e.err == nil; i++ {
			n1, n1b := e.ldpf(cur, cb, tspNodeNext)
			n2, n2b := e.ldpf(n1, n1b, tspNodeNext)
			if n2 == 0 {
				break
			}
			if dist(cur, cb, n2, n2b) < dist(cur, cb, n1, n1b) {
				// Swap n1 and n2 in the tour.
				n3, n3b := e.ldpf(n2, n2b, tspNodeNext)
				e.stpf(cur, cb, tspNodeNext, n2, n2b)
				e.stpf(n2, n2b, tspNodeNext, n1, n1b)
				e.stpf(n1, n1b, tspNodeNext, n3, n3b)
			}
			cur, cb = e.ldpf(cur, cb, tspNodeNext)
		}
	}

	// Tour length checksum.
	cur, cb := cities[0].P, cities[0].B
	var total uint64
	for i := 0; i < nCities && e.err == nil; i++ {
		n, nb := e.ldpf(cur, cb, tspNodeNext)
		total += dist(cur, cb, n, nb)
		cur, cb = n, nb
	}
	e.mix(total)
	return e.sum, e.err
}

// --- voronoi: Voronoi diagram over quad-edges (Olden) ---
//
// Profile: edge records allocated four-at-a-time, with a large share of
// promotes seeing legacy pointers (the original leans on uninstrumented
// libc math helpers whose results flow back through pointer-laden
// structures) — Table 4 shows only 44% of voronoi promotes are valid.

var voronoiEdgeT = layout.StructOf("qedge",
	layout.F("ox", layout.Long),
	layout.F("oy", layout.Long),
	layout.F("next", layout.PointerTo(nil)),
	layout.F("rot", layout.PointerTo(nil)))

var (
	voronoiEdgeOX   = mustField(voronoiEdgeT, "ox")
	voronoiEdgeNext = mustField(voronoiEdgeT, "next")
	voronoiEdgeRot  = mustField(voronoiEdgeT, "rot")
)

func runVoronoi(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nSites := 128 * scale

	// Legacy scratch table modeling libc's internal buffers: pointers
	// into it circulate through the working set.
	scratch := e.mallocLegacy(4096)

	edges := make([]rt.Obj, 0, nSites*2)
	for i := 0; i < nSites; i++ {
		// A quad-edge allocation: 4 edge records in one chunk.
		q := e.malloc(voronoiEdgeT, 4)
		edges = append(edges, q)
		for k := int64(0); k < 4; k++ {
			ep := e.gep(q.P, k*int64(voronoiEdgeT.Size()), q.B)
			e.st(e.gep(ep, 0, q.B), e.randn(1<<12), 8, q.B)
			e.st(e.gep(ep, 8, q.B), e.randn(1<<12), 8, q.B)
			// rot links within the quad (offset 24); next (offset 16)
			// alternates between a real edge and a pointer into the
			// legacy scratch region.
			rot := e.gep(q.P, ((k+1)%4)*int64(voronoiEdgeT.Size()), q.B)
			e.stp(e.gep(ep, 24, q.B), q.B, rot, q.B)
			if k%2 == 0 && len(edges) > 1 {
				prev := edges[len(edges)-2]
				e.stp(e.gep(ep, 16, q.B), q.B, prev.P, prev.B)
			} else {
				lp := e.gep(scratch.P, int64(e.randn(500))*8, scratch.B)
				e.stp(e.gep(ep, 16, q.B), q.B, lp, scratch.B)
			}
		}
	}

	// Walk the structure: each hop promotes either a tagged edge pointer
	// or a legacy scratch pointer.
	var total uint64
	for rep := 0; rep < 6; rep++ {
		for i := range edges {
			cur, cb := edges[i].P, edges[i].B
			for hop := rep; hop < 14 && cur != 0 && e.err == nil; hop++ {
				total += e.ldf(cur, cb, voronoiEdgeOX)
				e.tick(6)
				var next rt.Ptr
				var nb machine.BoundsReg
				if hop%2 == 0 {
					next, nb = e.ldpf(cur, cb, voronoiEdgeNext)
				} else {
					next, nb = e.ldpf(cur, cb, voronoiEdgeRot)
				}
				if next == 0 {
					break
				}
				cur, cb = next, nb
			}
		}
	}
	e.mix(total)
	return e.sum, e.err
}

package workloads

import (
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// --- bh: Barnes-Hut n-body (Olden) ---
//
// Pointer profile per Table 4: a huge stream of *local* objects (vector
// temporaries in the force kernel), a modest number of heap objects
// (bodies and tree cells, some with layout tables), and promotes that are
// almost all valid (the tree is dense).

// Node types here and below are package-level and shared across runs:
// read-only after init (see the package comment's concurrency contract).
var (
	bhVecT  = layout.ArrayOf(layout.Double, 3)
	bhBodyT = layout.StructOf("body",
		layout.F("kind", layout.Long), // 1 = body
		layout.F("mass", layout.Long),
		layout.F("pos", layout.ArrayOf(layout.Long, 3)),
		layout.F("vel", layout.ArrayOf(layout.Long, 3)),
		layout.F("next", layout.PointerTo(nil)))
	bhBodyKind = mustField(bhBodyT, "kind")
	bhBodyMass = mustField(bhBodyT, "mass")

	bhCellT = layout.StructOf("cell",
		layout.F("kind", layout.Long), // 0 = cell
		layout.F("mass", layout.Long),
		layout.F("mask", layout.Long), // bitmap of occupied child slots
		layout.F("pos", layout.ArrayOf(layout.Long, 3)),
		layout.F("child", layout.ArrayOf(layout.PointerTo(nil), 4)))
)

func runBH(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nBodies := 48 * scale
	steps := 2

	const (
		bodyPos  = 16 // body.pos offset
		bodyNext = 64 // body.next offset
		cellMask = 16 // cell.mask offset
		cellPos  = 24 // cell.pos offset
	)
	childOff := func(k uint64) int64 { return 48 + int64(k)*8 }

	// Allocate bodies with pseudo-random positions.
	bodies := make([]rt.Obj, 0, nBodies)
	for i := 0; i < nBodies; i++ {
		b := e.malloc(bhBodyT, 1)
		e.stf(b.P, b.B, bhBodyKind, 1)
		e.stf(b.P, b.B, bhBodyMass, 1+e.randn(8))
		for d := int64(0); d < 3; d++ {
			e.st(e.gep(b.P, bodyPos+8*d, b.B), e.randn(1024), 8, b.B)
		}
		bodies = append(bodies, b)
	}

	// Build a quadtree (4-ary here; the original is an octree) by
	// repeated insertion keyed on position bits. The cell's mask word
	// records which child slots are occupied so traversals only load
	// live child pointers — the original walks typed cell/body unions
	// and almost never sees NULL (Table 4: bh 99% valid promotes).
	root := e.malloc(bhCellT, 1)
	for _, b := range bodies {
		x := e.ld(e.gep(b.P, bodyPos, b.B), 8, b.B)
		y := e.ld(e.gep(b.P, bodyPos+8, b.B), 8, b.B)
		cur, cb := root.P, root.B
		for level := 0; level < 3 && e.err == nil; level++ {
			k := (x>>uint(level)&1)<<1 | y>>uint(level)&1
			mask := e.ld(e.gep(cur, cellMask, cb), 8, cb)
			if mask>>k&1 == 0 {
				nc := e.malloc(bhCellT, 1)
				e.stp(e.gep(cur, childOff(k), cb), cb, nc.P, nc.B)
				e.st(e.gep(cur, cellMask, cb), mask|1<<k, 8, cb)
				cur, cb = nc.P, nc.B
			} else {
				cur, cb = e.ldp(e.gep(cur, childOff(k), cb), cb)
			}
			e.tick(6)
		}
		// Hang the body on the leaf cell's last child slot list.
		mask := e.ld(e.gep(cur, cellMask, cb), 8, cb)
		if mask>>3&1 == 1 {
			old, ob := e.ldp(e.gep(cur, childOff(3), cb), cb)
			e.stp(e.gep(b.P, bodyNext, b.B), b.B, old, ob)
		}
		e.st(e.gep(cur, cellMask, cb), mask|1<<3, 8, cb)
		e.stp(e.gep(cur, childOff(3), cb), cb, b.P, b.B)
	}

	// Force computation: for each body, walk the whole tree; each
	// interaction builds a local displacement vector (the bh local-object
	// storm of Table 4) and runs the gravity kernel.
	interact := func(p rt.Ptr, b machine.BoundsReg, posOff int64, body rt.Obj) {
		mark := e.r.StackMark()
		dv := e.local(bhVecT)
		for d := int64(0); d < 3; d++ {
			bp := e.ld(e.gep(body.P, bodyPos+8*d, body.B), 8, body.B)
			cp := e.ld(e.gep(p, posOff+8*d, b), 8, b)
			e.st(e.gep(dv.P, 8*d, dv.B), bp-cp, 8, dv.B)
			e.tick(4)
		}
		v0 := e.ld(dv.P, 8, dv.B)
		e.mix(v0)
		// Gravity kernel: distance, inverse square root iterations,
		// acceleration update (pure FP compute in the original).
		e.tick(34)
		e.stf(body.P, body.B, bhBodyMass,
			e.ldf(body.P, body.B, bhBodyMass)+(v0&3))
		e.unlocal(dv)
		_ = e.r.StackRelease(mark) // mark comes from StackMark above; cannot fail
	}
	var walk func(p rt.Ptr, b machine.BoundsReg, body rt.Obj, depth int)
	walk = func(p rt.Ptr, b machine.BoundsReg, body rt.Obj, depth int) {
		if p == 0 || e.err != nil || depth > 8 {
			return
		}
		if kind := e.ldf(p, b, bhBodyKind); kind == 1 {
			// A body: interact and follow the collision list.
			interact(p, b, bodyPos, body)
			next, nb := e.ldp(e.gep(p, bodyNext, b), b)
			walk(next, nb, body, depth+1)
			return
		}
		interact(p, b, cellPos, body)
		mask := e.ld(e.gep(p, cellMask, b), 8, b)
		for k := uint64(0); k < 4; k++ {
			if mask>>k&1 == 0 {
				continue
			}
			child, chb := e.ldp(e.gep(p, childOff(k), b), b)
			walk(child, chb, body, depth+1)
		}
	}
	for s := 0; s < steps; s++ {
		for _, b := range bodies {
			walk(root.P, root.B, b, 0)
		}
	}

	for _, b := range bodies {
		e.mix(e.ldf(b.P, b.B, bhBodyMass))
		e.free(b)
	}
	return e.sum, e.err
}

// --- bisort: bitonic sort on a binary tree (Olden) ---
//
// Profile: one wave of heap node allocations, then value-swapping tree
// traversals; about half of child-pointer promotes hit NULL at the
// fringe (Table 4: 55% valid).

var bisortNodeT = layout.StructOf("bisort_node",
	layout.F("value", layout.Long),
	layout.F("left", layout.PointerTo(nil)),
	layout.F("right", layout.PointerTo(nil)))

var (
	bisortNodeValue = mustField(bisortNodeT, "value")
	bisortNodeLeft  = mustField(bisortNodeT, "left")
	bisortNodeRight = mustField(bisortNodeT, "right")
)

func runBisort(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	depth := 9 // 511 nodes at scale 1
	for s := scale; s > 1; s /= 2 {
		depth++
	}

	var build func(d int) (rt.Ptr, machine.BoundsReg)
	build = func(d int) (rt.Ptr, machine.BoundsReg) {
		if d == 0 || e.err != nil {
			return 0, machine.Cleared
		}
		n := e.malloc(bisortNodeT, 1)
		e.stf(n.P, n.B, bisortNodeValue, e.randn(1<<20))
		l, lb := build(d - 1)
		rp, rb := build(d - 1)
		e.stpf(n.P, n.B, bisortNodeLeft, l, lb)
		e.stpf(n.P, n.B, bisortNodeRight, rp, rb)
		return n.P, n.B
	}
	root, rootB := build(depth)

	// Bitonic merge: swap values across subtrees according to direction.
	var merge func(p rt.Ptr, b machine.BoundsReg, up bool)
	merge = func(p rt.Ptr, b machine.BoundsReg, up bool) {
		if p == 0 || e.err != nil {
			return
		}
		l, lb := e.ldpf(p, b, bisortNodeLeft)
		rp, rb := e.ldpf(p, b, bisortNodeRight)
		if l != 0 && rp != 0 {
			lv := e.ldf(l, lb, bisortNodeValue)
			rv := e.ldf(rp, rb, bisortNodeValue)
			if (lv > rv) == up {
				e.stf(l, lb, bisortNodeValue, rv)
				e.stf(rp, rb, bisortNodeValue, lv)
			}
			e.tick(5)
		}
		merge(l, lb, up)
		merge(rp, rb, !up)
	}
	for pass := 0; pass < 36; pass++ {
		merge(root, rootB, pass%2 == 0)
	}

	// Checksum: in-order fold.
	var fold func(p rt.Ptr, b machine.BoundsReg)
	fold = func(p rt.Ptr, b machine.BoundsReg) {
		if p == 0 || e.err != nil {
			return
		}
		l, lb := e.ldpf(p, b, bisortNodeLeft)
		fold(l, lb)
		e.mix(e.ldf(p, b, bisortNodeValue))
		rp, rb := e.ldpf(p, b, bisortNodeRight)
		fold(rp, rb)
	}
	fold(root, rootB)
	return e.sum, e.err
}

// --- em3d: electromagnetic wave propagation on a bipartite graph (Olden) ---
//
// Profile: nodes plus *array* allocations (neighbour-pointer arrays and
// coefficient arrays of varying degree). Under the subheap allocator the
// varied array sizes land in separate blocks — the paper's worst subheap
// memory overhead (§5.2.3).

var em3dNodeT = layout.StructOf("em3d_node",
	layout.F("value", layout.Long),
	layout.F("from_count", layout.Long),
	layout.F("from_nodes", layout.PointerTo(nil)),
	layout.F("coeffs", layout.PointerTo(nil)))

var (
	em3dNodeValue     = mustField(em3dNodeT, "value")
	em3dNodeFromCount = mustField(em3dNodeT, "from_count")
	em3dNodeFromNodes = mustField(em3dNodeT, "from_nodes")
	em3dNodeCoeffs    = mustField(em3dNodeT, "coeffs")
)

func runEM3D(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nNodes := 120 * scale
	iters := 20
	ptrT := layout.PointerTo(nil)

	type node struct{ o, fromArr, coeffArr rt.Obj }
	mk := func() []node {
		ns := make([]node, nNodes)
		for i := range ns {
			ns[i].o = e.malloc(em3dNodeT, 1)
			e.stf(ns[i].o.P, ns[i].o.B, em3dNodeValue, e.randn(1<<16))
		}
		return ns
	}
	eNodes, hNodes := mk(), mk()

	link := func(ns, peers []node) {
		for i := range ns {
			deg := 4 + e.randn(12) // varied degrees -> varied array sizes
			ns[i].fromArr = e.malloc(ptrT, deg)
			ns[i].coeffArr = e.malloc(layout.Long, deg)
			e.stf(ns[i].o.P, ns[i].o.B, em3dNodeFromCount, deg)
			e.stpf(ns[i].o.P, ns[i].o.B, em3dNodeFromNodes, ns[i].fromArr.P, ns[i].fromArr.B)
			e.stpf(ns[i].o.P, ns[i].o.B, em3dNodeCoeffs, ns[i].coeffArr.P, ns[i].coeffArr.B)
			for j := uint64(0); j < deg; j++ {
				peer := peers[e.randn(uint64(len(peers)))]
				e.stp(e.gep(ns[i].fromArr.P, int64(j)*8, ns[i].fromArr.B), ns[i].fromArr.B, peer.o.P, peer.o.B)
				e.st(e.gep(ns[i].coeffArr.P, int64(j)*8, ns[i].coeffArr.B), 1+e.randn(7), 8, ns[i].coeffArr.B)
			}
		}
	}
	link(eNodes, hNodes)
	link(hNodes, eNodes)

	compute := func(ns []node) {
		for i := range ns {
			p, b := ns[i].o.P, ns[i].o.B
			deg := e.ldf(p, b, em3dNodeFromCount)
			from, fb := e.ldpf(p, b, em3dNodeFromNodes)
			coef, cb := e.ldpf(p, b, em3dNodeCoeffs)
			acc := e.ldf(p, b, em3dNodeValue)
			for j := uint64(0); j < deg && e.err == nil; j++ {
				peer, pb := e.ldp(e.gep(from, int64(j)*8, fb), fb)
				c := e.ld(e.gep(coef, int64(j)*8, cb), 8, cb)
				pv := e.ldf(peer, pb, em3dNodeValue)
				acc -= c * pv
				e.tick(3)
			}
			e.stf(p, b, em3dNodeValue, acc)
		}
	}
	for it := 0; it < iters; it++ {
		compute(eNodes)
		compute(hNodes)
	}
	for i := range eNodes {
		e.mix(e.ldf(eNodes[i].o.P, eNodes[i].o.B, em3dNodeValue))
		e.mix(e.ldf(hNodes[i].o.P, hNodes[i].o.B, em3dNodeValue))
	}
	return e.sum, e.err
}

// --- health: Colombian health-care simulation (Olden) ---
//
// Profile: a 4-ary village tree whose patient linked lists grow over the
// run; most of the time goes to list traversal, with a working set well
// past L1D — the wrapped allocator's per-object metadata doubles the miss
// rate (the paper's worst wrapped overhead).

var (
	healthPatientT = layout.StructOf("patient",
		layout.F("hosts", layout.Long),
		layout.F("time", layout.Long),
		layout.F("next", layout.PointerTo(nil)))
	healthPatientTime  = mustField(healthPatientT, "time")
	healthPatientNext  = mustField(healthPatientT, "next")
	healthPatientHosts = mustField(healthPatientT, "hosts")

	healthVillageT = layout.StructOf("village",
		layout.F("id", layout.Long),
		layout.F("waiting", layout.PointerTo(nil)),
		layout.F("child", layout.ArrayOf(layout.PointerTo(nil), 4)))
	healthVillageID      = mustField(healthVillageT, "id")
	healthVillageWaiting = mustField(healthVillageT, "waiting")
)

func runHealth(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	depth := 3
	steps := 30 * scale

	var villages []rt.Obj
	var build func(d int) (rt.Ptr, machine.BoundsReg)
	build = func(d int) (rt.Ptr, machine.BoundsReg) {
		if d < 0 || e.err != nil {
			return 0, machine.Cleared
		}
		v := e.malloc(healthVillageT, 1)
		villages = append(villages, v)
		e.stf(v.P, v.B, healthVillageID, uint64(len(villages)))
		for k := int64(0); k < 4; k++ {
			c, cb := build(d - 1)
			e.stp(e.gep(v.P, 16+8*k, v.B), v.B, c, cb)
		}
		return v.P, v.B
	}
	build(depth)

	// A record cell holding a pointer to the most recently admitted
	// patient's `time` member: the reload promotes a subobject-indexed
	// pointer through the layout table (the paper's health: <1% of
	// promotes narrow, all successfully).
	lastAdmit := e.mallocBytes(8)

	for s := 0; s < steps; s++ {
		for _, v := range villages {
			// New patient arrives at the head of the waiting list.
			p := e.malloc(healthPatientT, 1)
			e.stf(p.P, p.B, healthPatientTime, uint64(s))
			head, hb := e.ldpf(v.P, v.B, healthVillageWaiting)
			e.stpf(p.P, p.B, healthPatientNext, head, hb)
			e.stpf(v.P, v.B, healthVillageWaiting, p.P, p.B)
			e.stp(lastAdmit.P, lastAdmit.B,
				e.fieldPtr(p.P, p.B, healthPatientTime), p.B)
			tp, tb := e.ldp(lastAdmit.P, lastAdmit.B)
			e.mix(e.ld(tp, 8, tb))

			// Traverse the list, aging every patient (the hot loop).
			cur, cb := e.ldpf(v.P, v.B, healthVillageWaiting)
			for cur != 0 && e.err == nil {
				t := e.ldf(cur, cb, healthPatientTime)
				e.stf(cur, cb, healthPatientHosts, t+uint64(s))
				e.tick(7) // triage arithmetic
				cur, cb = e.ldpf(cur, cb, healthPatientNext)
			}
			// Census pass: a second traversal tallying treatment state.
			var treated uint64
			cur, cb = e.ldpf(v.P, v.B, healthVillageWaiting)
			for cur != 0 && e.err == nil {
				treated += e.ldf(cur, cb, healthPatientHosts) & 1
				e.tick(3)
				cur, cb = e.ldpf(cur, cb, healthPatientNext)
			}
			e.stf(v.P, v.B, healthVillageID, treated)
		}
	}
	for _, v := range villages {
		n := uint64(0)
		cur, cb := e.ldpf(v.P, v.B, healthVillageWaiting)
		for cur != 0 && e.err == nil {
			n++
			e.mix(e.ldf(cur, cb, healthPatientHosts))
			cur, cb = e.ldpf(cur, cb, healthPatientNext)
		}
		e.mix(n)
	}
	return e.sum, e.err
}

// --- mst: minimum spanning tree with hash tables (Olden) ---
//
// Profile: vertices with chained hash tables; a noticeable share of
// promotes bypass metadata lookup — chain-end NULLs and entries allocated
// by an "uninstrumented library" (legacy pointers), the paper's 60/40
// legacy/NULL bypass mix.

var (
	mstVertexT = layout.StructOf("mst_vertex",
		layout.F("mindist", layout.Long),
		layout.F("next", layout.PointerTo(nil)),
		layout.F("hash", layout.PointerTo(nil)))
	mstVertexMindist = mustField(mstVertexT, "mindist")
	mstVertexHash    = mustField(mstVertexT, "hash")

	mstEntryT = layout.StructOf("mst_entry",
		layout.F("key", layout.Long),
		layout.F("weight", layout.Long),
		layout.F("next", layout.PointerTo(nil)))
	mstEntryKey    = mustField(mstEntryT, "key")
	mstEntryWeight = mustField(mstEntryT, "weight")
	mstEntryNext   = mustField(mstEntryT, "next")
)

func runMST(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nVerts := 64 * scale
	buckets := uint64(2)
	ptrT := layout.PointerTo(nil)

	verts := make([]rt.Obj, nVerts)
	for i := range verts {
		verts[i] = e.malloc(mstVertexT, 1)
		e.stf(verts[i].P, verts[i].B, mstVertexMindist, 1<<30)
		ht := e.malloc(ptrT, buckets)
		e.stpf(verts[i].P, verts[i].B, mstVertexHash, ht.P, ht.B)
		// Edges to a handful of other vertices; ~1/6 of the entries come
		// from the legacy helper (uninstrumented code).
		for j := 0; j < 6; j++ {
			var entry rt.Obj
			if e.randn(6) == 0 {
				entry = e.mallocLegacy(mstEntryT.Size())
			} else {
				entry = e.malloc(mstEntryT, 1)
			}
			key := e.randn(uint64(nVerts))
			e.stf(entry.P, entry.B, mstEntryKey, key)
			e.stf(entry.P, entry.B, mstEntryWeight, 1+e.randn(97))
			slot := e.gep(ht.P, int64(key%buckets)*8, ht.B)
			old, ob := e.ldp(slot, ht.B)
			e.stpf(entry.P, entry.B, mstEntryNext, old, ob)
			e.stp(slot, ht.B, entry.P, entry.B)
		}
	}

	// Prim-style sweep: repeatedly scan all vertices' hash chains for the
	// lightest edge out of the grown set.
	inTree := make([]bool, nVerts)
	inTree[0] = true
	total := uint64(0)
	for added := 1; added < nVerts*3/4 && e.err == nil; added++ {
		best := uint64(1 << 30)
		bestV := -1
		for i := range verts {
			if !inTree[i] {
				continue
			}
			ht, hb := e.ldpf(verts[i].P, verts[i].B, mstVertexHash)
			for bkt := uint64(0); bkt < buckets && e.err == nil; bkt++ {
				cur, cb := e.ldp(e.gep(ht, int64(bkt)*8, hb), hb)
				for cur != 0 && e.err == nil {
					key := e.ldf(cur, cb, mstEntryKey)
					w := e.ldf(cur, cb, mstEntryWeight)
					if !inTree[key%uint64(nVerts)] && w < best {
						best = w
						bestV = int(key % uint64(nVerts))
					}
					e.tick(9)
					cur, cb = e.ldpf(cur, cb, mstEntryNext)
				}
			}
		}
		if bestV < 0 {
			break
		}
		inTree[bestV] = true
		total += best
	}
	e.mix(total)
	return e.sum, e.err
}

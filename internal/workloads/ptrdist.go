package workloads

import (
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// --- anagram (PtrDist) ---
//
// Profile: the paper singles anagram out for its legacy-pointer promotes:
// each isalpha() compiles to a __ctype_b_loc() call returning a *legacy*
// double pointer, whose dereference is followed by a promote that always
// sees an uninstrumented pointer (§5.2.1). Only 41% of its promotes are
// valid.

func runAnagram(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nWords := 160 * scale

	// The libc character-traits table and the double pointer returned by
	// __ctype_b_loc(): both live in uninstrumented memory.
	ctype := e.mallocLegacy(2048)
	for c := int64(0); c < 256; c++ {
		isAlpha := uint64(0)
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			isAlpha = 1
		}
		e.st(e.gep(ctype.P, c*8, ctype.B), isAlpha, 8, ctype.B)
	}
	ctypeLoc := e.mallocLegacy(8)
	e.stp(ctypeLoc.P, ctypeLoc.B, ctype.P, ctype.B)

	// Dictionary words: heap char buffers.
	words := make([]rt.Obj, nWords)
	lens := make([]int64, nWords)
	for i := range words {
		n := 3 + int64(e.randn(8))
		lens[i] = n
		words[i] = e.malloc(layout.Char, uint64(n))
		for j := int64(0); j < n; j++ {
			e.st(e.gep(words[i].P, j, words[i].B), 'a'+e.randn(26), 1, words[i].B)
		}
	}

	// For each word, compute a letter histogram signature, calling the
	// "libc" classifier per character. The word pointer is caller-saved
	// across each call, so it is spilled (demote) and re-promoted after —
	// anagram's valid promotes; the ctype double-pointer dereference is
	// its legacy promote stream (§5.2.1).
	spill, serr := e.r.StackRaw(8)
	e.fail(serr)
	var sigs []uint64
	for i := range words {
		var sig uint64
		wp, wb := words[i].P, words[i].B
		for j := int64(0); j < lens[i] && e.err == nil; j++ {
			ch := e.ld(e.gep(wp, j, wb), 1, wb)
			// Spill the word pointer around the call.
			e.stp(spill, machine.Cleared, wp, wb)
			// isalpha(ch): load the double pointer, promote (legacy!),
			// index the traits table.
			tbl, tb := e.ldp(ctypeLoc.P, ctypeLoc.B)
			alpha := e.ld(e.gep(tbl, int64(ch)*8, tb), 8, tb)
			// Reload and re-promote the word pointer.
			wp, wb = e.ldp(spill, machine.Cleared)
			if alpha != 0 {
				sig |= 1 << ((ch - 'a') % 64)
			}
			e.tick(5)
		}
		sigs = append(sigs, sig)
	}

	// Count anagram-candidate pairs by signature subset tests.
	var hits uint64
	for i := range sigs {
		for j := i + 1; j < len(sigs) && j < i+48; j++ {
			if sigs[i]&sigs[j] == sigs[j] {
				hits++
			}
			e.tick(8)
		}
	}
	e.mix(hits)
	return e.sum, e.err
}

// --- ft: minimum spanning tree with Fibonacci-style heaps (PtrDist) ---
//
// Profile: the promote-heaviest program (Table 4: 2.27e8 promotes,
// ≈100% valid) with a working set far past L1D — the wrapped allocator's
// scattered per-object metadata nearly doubles the miss rate (Figure 10's
// worst case together with health).

// Node types here and below are package-level and shared across runs:
// read-only after init (see the package comment's concurrency contract).
var ftNodeT = layout.StructOf("ft_node",
	layout.F("key", layout.Long),
	layout.F("child", layout.PointerTo(nil)),
	layout.F("sibling", layout.PointerTo(nil)))

var (
	ftNodeKey     = mustField(ftNodeT, "key")
	ftNodeChild   = mustField(ftNodeT, "child")
	ftNodeSibling = mustField(ftNodeT, "sibling")
)

func runFT(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nNodes := 2600 * scale

	// Build a pairing heap by successive insertion.
	meld := func(a rt.Ptr, ab machine.BoundsReg, b rt.Ptr, bb machine.BoundsReg) (rt.Ptr, machine.BoundsReg) {
		if a == 0 {
			return b, bb
		}
		if b == 0 {
			return a, ab
		}
		ak := e.ldf(a, ab, ftNodeKey)
		bk := e.ldf(b, bb, ftNodeKey)
		if ak > bk {
			a, b = b, a
			ab, bb = bb, ab
		}
		// b becomes a's first child.
		oldChild, ocb := e.ldpf(a, ab, ftNodeChild)
		e.stpf(b, bb, ftNodeSibling, oldChild, ocb)
		e.stpf(a, ab, ftNodeChild, b, bb)
		e.tick(4)
		return a, ab
	}

	var root rt.Ptr
	var rootB machine.BoundsReg
	for i := 0; i < nNodes; i++ {
		n := e.malloc(ftNodeT, 1)
		e.stf(n.P, n.B, ftNodeKey, e.randn(1<<30))
		root, rootB = meld(root, rootB, n.P, n.B)
	}

	// Delete-min loop: pop the root, two-pass meld its children. The
	// child lists are host-side buffers, reused across pops.
	type ref struct {
		p rt.Ptr
		b machine.BoundsReg
	}
	var kids, merged []ref
	var popped uint64
	for root != 0 && e.err == nil {
		e.mix(e.ldf(root, rootB, ftNodeKey))
		popped++
		// Collect children.
		kids = kids[:0]
		c, cb := e.ldpf(root, rootB, ftNodeChild)
		for c != 0 && e.err == nil {
			next, nb := e.ldpf(c, cb, ftNodeSibling)
			kids = append(kids, ref{c, cb})
			c, cb = next, nb
		}
		// Two-pass pairing.
		merged = merged[:0]
		for i := 0; i+1 < len(kids); i += 2 {
			p, b := meld(kids[i].p, kids[i].b, kids[i+1].p, kids[i+1].b)
			merged = append(merged, ref{p, b})
		}
		if len(kids)%2 == 1 {
			merged = append(merged, kids[len(kids)-1])
		}
		root, rootB = 0, machine.Cleared
		for i := len(merged) - 1; i >= 0; i-- {
			root, rootB = meld(root, rootB, merged[i].p, merged[i].b)
		}
	}
	e.mix(popped)
	return e.sum, e.err
}

// --- ks: Kernighan-Schweikert graph partitioning (PtrDist) ---
//
// Profile: modules in malloc'd arrays with net lists; gain recomputation
// sweeps chase list pointers, with chain-end NULLs keeping the valid-
// promote share below full (Table 4: 79%).

var ksNetT = layout.StructOf("ks_net",
	layout.F("module", layout.Long),
	layout.F("next", layout.PointerTo(nil)))

var (
	ksNetModule = mustField(ksNetT, "module")
	ksNetNext   = mustField(ksNetT, "next")
)

func runKS(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nModules := 96 * scale
	nNets := nModules * 3

	// Module table: a single large array (global-table scheme under the
	// wrapped allocator when big enough).
	modules := e.malloc(layout.Long, uint64(nModules))
	for i := int64(0); i < int64(nModules); i++ {
		e.st(e.gep(modules.P, i*8, modules.B), uint64(i)&1, 8, modules.B) // initial side
	}

	// Per-module net chains.
	heads := make([]rt.Obj, nModules)
	for i := range heads {
		heads[i] = e.mallocBytes(8) // head cell, untyped
	}
	for n := 0; n < nNets; n++ {
		m := e.randn(uint64(nModules))
		net := e.malloc(ksNetT, 1)
		e.stf(net.P, net.B, ksNetModule, e.randn(uint64(nModules)))
		old, ob := e.ldp(heads[m].P, heads[m].B)
		e.stpf(net.P, net.B, ksNetNext, old, ob)
		e.stp(heads[m].P, heads[m].B, net.P, net.B)
	}

	// Gain sweeps: for each module, walk its nets and count cut edges.
	var totalGain uint64
	for pass := 0; pass < 40 && e.err == nil; pass++ {
		for m := 0; m < nModules && e.err == nil; m++ {
			side := e.ld(e.gep(modules.P, int64(m)*8, modules.B), 8, modules.B)
			var gain uint64
			cur, cb := e.ldp(heads[m].P, heads[m].B)
			for cur != 0 && e.err == nil {
				peer := e.ldf(cur, cb, ksNetModule)
				peerSide := e.ld(e.gep(modules.P, int64(peer)*8, modules.B), 8, modules.B)
				if peerSide != side {
					gain++
				}
				e.tick(4)
				cur, cb = e.ldpf(cur, cb, ksNetNext)
			}
			if gain > 1 {
				e.st(e.gep(modules.P, int64(m)*8, modules.B), side^1, 8, modules.B)
				totalGain += gain
			}
		}
	}
	e.mix(totalGain)
	return e.sum, e.err
}

// --- yacr2: yet another channel router (PtrDist) ---
//
// Profile: dense array scanning over malloc'd long arrays plus a few
// instrumented locals; essentially all promotes are valid.

func runYacr2(r *rt.Runtime, scale int) (uint64, error) {
	e := newEnv(r)
	nTerms := 160 * scale

	top := e.malloc(layout.Long, uint64(nTerms))
	bot := e.malloc(layout.Long, uint64(nTerms))
	vcg := e.malloc(layout.Long, uint64(nTerms)) // vertical constraint heads
	for i := int64(0); i < int64(nTerms); i++ {
		e.st(e.gep(top.P, i*8, top.B), 1+e.randn(uint64(nTerms/4)), 8, top.B)
		e.st(e.gep(bot.P, i*8, bot.B), 1+e.randn(uint64(nTerms/4)), 8, bot.B)
	}

	// The channel descriptor holds the array pointers; the router's
	// functions receive the descriptor and reload the arrays from it —
	// yacr2's (≈100% valid) promote stream.
	chanDesc := e.mallocBytes(4 * 8)
	e.stp(e.gep(chanDesc.P, 0, chanDesc.B), chanDesc.B, top.P, top.B)
	e.stp(e.gep(chanDesc.P, 8, chanDesc.B), chanDesc.B, bot.P, bot.B)
	e.stp(e.gep(chanDesc.P, 16, chanDesc.B), chanDesc.B, vcg.P, vcg.B)

	// Build the vertical constraint graph: column scans with a local
	// scratch frame per column (instrumented locals).
	for col := int64(0); col < int64(nTerms) && e.err == nil; col++ {
		mark := e.r.StackMark()
		scratch := e.localBytes(64)
		topP, topB := e.ldp(e.gep(chanDesc.P, 0, chanDesc.B), chanDesc.B)
		botP, botB := e.ldp(e.gep(chanDesc.P, 8, chanDesc.B), chanDesc.B)
		t := e.ld(e.gep(topP, col*8, topB), 8, topB)
		b := e.ld(e.gep(botP, col*8, botB), 8, botB)
		e.st(scratch.P, t, 8, scratch.B)
		e.st(e.gep(scratch.P, 8, scratch.B), b, 8, scratch.B)
		if t != b {
			e.st(e.gep(vcg.P, col*8, vcg.B), t*65536+b, 8, vcg.B)
		}
		e.tick(24)
		e.unlocal(scratch)
		_ = e.r.StackRelease(mark) // mark comes from StackMark above; cannot fail
	}

	// Track assignment sweeps: repeatedly scan the constraint array and
	// assign tracks greedily.
	assigned := e.malloc(layout.Long, uint64(nTerms))
	e.stp(e.gep(chanDesc.P, 24, chanDesc.B), chanDesc.B, assigned.P, assigned.B)
	var tracks uint64
	for sweep := 0; sweep < 10 && e.err == nil; sweep++ {
		vcgP, vcgB := e.ldp(e.gep(chanDesc.P, 16, chanDesc.B), chanDesc.B)
		asgP, asgB := e.ldp(e.gep(chanDesc.P, 24, chanDesc.B), chanDesc.B)
		for col := int64(0); col < int64(nTerms) && e.err == nil; col++ {
			c := e.ld(e.gep(vcgP, col*8, vcgB), 8, vcgB)
			a := e.ld(e.gep(asgP, col*8, asgB), 8, asgB)
			if c != 0 && a == 0 && (c>>16)%uint64(sweep+1) == 0 {
				e.st(e.gep(asgP, col*8, asgB), uint64(sweep)+1, 8, asgB)
				tracks++
			}
			e.tick(14) // track selection arithmetic
		}
	}
	e.mix(tracks)
	return e.sum, e.err
}

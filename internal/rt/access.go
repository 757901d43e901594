package rt

import (
	"infat/internal/machine"
	"infat/internal/tag"
)

// This file provides the mode-transparent access API used by workloads and
// examples. In an instrumented mode each helper emits exactly the
// instructions the In-Fat Pointer compiler would (Listing 2); in Baseline
// mode it emits the uninstrumented equivalent, so comparing two runs of
// the same workload measures the instrumentation overhead, which is the
// paper's §5.2 methodology. A footprint-only run (FootprintOnly) gives
// LoadPtr, StorePtr, GEP, SetSub, Bnd and Promote their Baseline
// semantics; the spill helpers keep the mode's, because a bounds spill
// writes guest memory.

// Load reads size bytes through p with the implicit access-size check when
// b holds bounds (or an explicit ifpchk under the ExplicitChecks
// ablation).
func (r *Runtime) Load(p Ptr, size int, b machine.BoundsReg) (uint64, error) {
	if r.ExplicitChecks && b.Valid {
		p = r.M.IfpChk(p, uint64(size), b)
		return r.M.Load(p, size, machine.Cleared)
	}
	return r.M.Load(p, size, b)
}

// Store writes the low size bytes of v through p.
func (r *Runtime) Store(p Ptr, v uint64, size int, b machine.BoundsReg) error {
	if r.ExplicitChecks && b.Valid {
		p = r.M.IfpChk(p, uint64(size), b)
		return r.M.Store(p, v, size, machine.Cleared)
	}
	return r.M.Store(p, v, size, b)
}

// LoadPtr loads a pointer value from memory and promotes it — the
// canonical instrumentation for pointers whose bounds the compiler cannot
// see (§3.4: "only pointers not derived from another pointer (e.g., just
// loaded from memory) need promote").
func (r *Runtime) LoadPtr(p Ptr, b machine.BoundsReg) (Ptr, machine.BoundsReg, error) {
	v, err := r.Load(p, 8, b)
	if err != nil {
		return 0, machine.Cleared, err
	}
	if !r.ifpAccess {
		return v, machine.Cleared, nil
	}
	q, qb := r.M.Promote(v)
	return q, qb, nil
}

// StorePtr demotes a pointer (dropping its bounds register, §4.1) and
// stores it. The tag is stored with the value — tags persist in memory.
func (r *Runtime) StorePtr(p Ptr, b machine.BoundsReg, v Ptr, vb machine.BoundsReg) error {
	if r.ifpAccess {
		v = r.M.IfpExtract(v, vb)
	}
	return r.Store(p, v, 8, b)
}

// GEP is pointer arithmetic: ifpadd when the pointer carries a tag
// (address computation fused with tag maintenance, replacing the baseline
// add one-for-one), and a plain add for untagged pointers — the compiler
// only emits ifpadd where there is a tag to maintain.
func (r *Runtime) GEP(p Ptr, delta int64, b machine.BoundsReg) Ptr {
	if !r.ifpAccess || tag.IsLegacy(p) {
		r.M.Tick(1)
		return p + uint64(delta)
	}
	return r.M.IfpAdd(p, delta, b)
}

// SetSub updates the subobject index (ifpidx) when code takes the address
// of a struct member. Baseline code has no equivalent instruction — this
// is pure instrumentation overhead. In IFPTemporal mode the shared bits
// hold the allocation generation, so the compiler emits no ifpidx at all
// and the pointer passes through unchanged (subobject narrowing is the
// capability the temporal mode trades away, DESIGN.md §14).
func (r *Runtime) SetSub(p Ptr, idx uint16) Ptr {
	if !r.ifpAccess || r.mode == IFPTemporal {
		return p
	}
	return r.M.IfpIdx(p, idx)
}

// Bnd creates bounds of a statically known size (ifpbnd): the compiler
// uses it when deriving a subobject pointer whose extent it knows, so no
// promote is needed (§3.4 static-bounds case).
func (r *Runtime) Bnd(p Ptr, size uint64) machine.BoundsReg {
	if !r.ifpAccess {
		return machine.Cleared
	}
	return r.M.IfpBnd(p, size)
}

// Promote re-retrieves bounds for a pointer (explicit promote site).
func (r *Runtime) Promote(p Ptr) (Ptr, machine.BoundsReg) {
	if !r.ifpAccess {
		return p, machine.Cleared
	}
	return r.M.Promote(p)
}

// SpillBounds / ReloadBounds model callee-saved bounds-register traffic
// across deep call chains (stbnd/ldbnd, §4.1.2). Baseline code spills only
// the GPR, which its own Store/Load already accounts for; the bounds words
// are the instrumentation's additional traffic.
func (r *Runtime) SpillBounds(addr uint64, b machine.BoundsReg) error {
	if r.rec != nil {
		r.rec.spill(evSpill, addr)
	}
	if !r.Instrumented() {
		return nil
	}
	return r.M.StBnd(addr, b)
}

// ReloadBounds restores a spilled bounds register.
func (r *Runtime) ReloadBounds(addr uint64) (machine.BoundsReg, error) {
	if r.rec != nil {
		r.rec.spill(evReload, addr)
	}
	if !r.Instrumented() {
		return machine.Cleared, nil
	}
	return r.M.LdBnd(addr)
}

// Memset writes count bytes of value b starting at p, word-at-a-time, with
// one implicit check per word — modeling a compiled memset loop.
func (r *Runtime) Memset(p Ptr, val byte, count uint64, b machine.BoundsReg) error {
	word := uint64(val)
	word |= word << 8
	word |= word << 16
	word |= word << 32
	var i uint64
	for ; i+8 <= count; i += 8 {
		if err := r.Store(r.GEP(p, int64(i), b), word, 8, b); err != nil {
			return err
		}
	}
	for ; i < count; i++ {
		if err := r.Store(r.GEP(p, int64(i), b), uint64(val), 1, b); err != nil {
			return err
		}
	}
	return nil
}

// Memcpy copies count bytes from src to dst word-at-a-time.
func (r *Runtime) Memcpy(dst Ptr, db machine.BoundsReg, src Ptr, sb machine.BoundsReg, count uint64) error {
	var i uint64
	for ; i+8 <= count; i += 8 {
		v, err := r.Load(r.GEP(src, int64(i), sb), 8, sb)
		if err != nil {
			return err
		}
		if err := r.Store(r.GEP(dst, int64(i), db), v, 8, db); err != nil {
			return err
		}
	}
	for ; i < count; i++ {
		v, err := r.Load(r.GEP(src, int64(i), sb), 1, sb)
		if err != nil {
			return err
		}
		if err := r.Store(r.GEP(dst, int64(i), db), v, 1, db); err != nil {
			return err
		}
	}
	return nil
}

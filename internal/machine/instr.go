package machine

import (
	"infat/internal/layout"
	"infat/internal/metadata"
	"infat/internal/tag"
)

// This file implements the single-cycle In-Fat Pointer instructions of
// Table 3 (everything except promote, which lives in promote.go). Each
// method models one dynamic instruction: it bumps the per-class counter,
// one instruction, and one cycle, then applies the architectural effect.

func (m *Machine) tick1(class *uint64) {
	*class++
	m.C.Instrs++
	m.C.Cycles++
}

// IfpAdd implements the ifpadd instruction: address computation fused with
// pointer-tag maintenance (§4.1). It adds delta to the pointer, keeps the
// scheme fields consistent (the local-offset granule offset is relative to
// the *current* address and must be recomputed), and updates poison bits
// against the paired bounds register when one is valid.
func (m *Machine) IfpAdd(p uint64, delta int64, breg BoundsReg) uint64 {
	m.tick1(&m.C.IfpAdd)
	if ps := tag.PoisonOf(p); ps == tag.Invalid || (m.TemporalTags && ps == tag.Stale) {
		return p // invalid (and, temporally, stale) pointers stay poisoned through arithmetic
	}
	oldAddr := tag.Addr(p)
	newAddr := (oldAddr + uint64(delta)) & tag.AddrMask
	q := p&^tag.AddrMask | newAddr

	// Maintain the local-offset granule offset across the move.
	if tag.SchemeOf(p) == tag.SchemeLocalOffset {
		off, _ := tag.LocalFields(p)
		metaAddr := metadata.LocalMetaAddr(oldAddr, off)
		newOff, ok := metadata.LocalGranuleOffset(newAddr, metaAddr)
		if !ok {
			// The pointer drifted so far that the metadata is no longer
			// reachable from the tag: irrecoverable (§3.2).
			return tag.WithPoison(q, tag.Invalid)
		}
		_, sub := tag.LocalFields(p)
		q = tag.WithMeta(q, newOff<<tag.LocalSubobjBits|sub)
	}

	// Fused poison update against the bounds register (§4.1: "ifpadd will
	// update the poison bits when the address computation result is out of
	// bounds").
	if breg.Valid {
		q = tag.WithPoison(q, poisonFor(breg.B, newAddr))
	} else if tag.PoisonOf(p) == tag.OOB {
		// Without bounds we cannot prove the pointer came back in range;
		// it stays recoverable-OOB until a promote or check refreshes it.
		q = tag.WithPoison(q, tag.OOB)
	}
	return q
}

// poisonFor classifies an address against bounds: inside is Valid,
// anything else is the recoverable out-of-bounds state (off-by-one is the
// common legal case, §3.2).
func poisonFor(b layout.Bounds, addr uint64) tag.Poison {
	if addr >= b.Lower && addr < b.Upper {
		return tag.Valid
	}
	return tag.OOB
}

// IfpIdx implements the ifpidx instruction: it rewrites the subobject-index
// field when instrumented code indexes into a struct (§4.1).
func (m *Machine) IfpIdx(p uint64, idx uint16) uint64 {
	m.tick1(&m.C.IfpIdx)
	return tag.WithSubobjIndex(p, idx)
}

// IfpBnd implements the ifpbnd instruction: create pointer bounds with a
// statically known size, [addr, addr+size) (§4.1: used when the compiler
// knows the object or needs to narrow to a known size).
func (m *Machine) IfpBnd(p uint64, size uint64) BoundsReg {
	m.tick1(&m.C.IfpBnd)
	a := tag.Addr(p)
	return BoundsReg{B: layout.Bounds{Lower: a, Upper: a + size}, Valid: true}
}

// IfpChk implements the ifpchk instruction: an explicit access-size check
// of p against breg. On failure the returned pointer is poisoned Invalid
// (§3.2 lists "indexing into a struct after a failed bounds check" as
// irrecoverable), so the following dereference traps.
func (m *Machine) IfpChk(p uint64, size uint64, breg BoundsReg) uint64 {
	m.tick1(&m.C.IfpChk)
	if !breg.Valid {
		return p // cleared bounds: unchecked, matching legacy behaviour
	}
	if m.TemporalTags && tag.PoisonOf(p) == tag.Stale {
		return p // a spatial check must not re-validate a temporal detection
	}
	m.C.Checks++
	if !breg.B.Contains(tag.Addr(p), size) {
		m.C.CheckFails++
		return tag.WithPoison(p, tag.Invalid)
	}
	return tag.WithPoison(p, tag.Valid)
}

// IfpExtract implements the ifpextract instruction ("demote"): the IFPR is
// reduced to a plain GPR value before the pointer is stored to memory. The
// tag stays on the pointer (tags persist through memory); only the bounds
// register association is dropped. Demote refreshes the poison bits from
// the bounds while they are still at hand (§4.1: "essentially a truncation
// but will also update the poison bits if the pointer is (wildly)
// out-of-bounds").
func (m *Machine) IfpExtract(p uint64, breg BoundsReg) uint64 {
	m.tick1(&m.C.IfpExtract)
	if ps := tag.PoisonOf(p); breg.Valid && ps != tag.Invalid && !(m.TemporalTags && ps == tag.Stale) {
		return tag.WithPoison(p, poisonFor(breg.B, tag.Addr(p)))
	}
	return p
}

// IfpMac implements the ifpmac instruction: MAC generation for object
// metadata during allocation instrumentation (§4.1). It computes the
// triple promote later verifies (metadata.LocalMACFields) through the MAC
// memo, so the object's first promote finds its MAC there; the cycle and
// instruction charges do not depend on the memo.
func (m *Machine) IfpMac(base, size, layoutPtr uint64) uint64 {
	m.tick1(&m.C.IfpMac)
	m.C.Cycles += m.Cost.MacCycles - 1
	return m.objectMAC(base, size, layoutPtr)
}

// IfpMacSubheap is the ifpmac variant covering a subheap block's shared
// metadata record. Like IfpMac it fills the MAC memo with the triple
// promote verifies (metadata.SubheapMACFields).
func (m *Machine) IfpMacSubheap(blockBase uint64, md metadata.Subheap) uint64 {
	m.tick1(&m.C.IfpMac)
	m.C.Cycles += m.Cost.MacCycles - 1
	return m.objectMAC(metadata.SubheapMACFields(blockBase, md))
}

// IfpMdLocal implements the pointer-tag-setup flavour of ifpmd for the
// local-offset scheme.
func (m *Machine) IfpMdLocal(addr uint64, granuleOff, subobj uint16) uint64 {
	m.tick1(&m.C.IfpMd)
	return tag.MakeLocal(addr, granuleOff, subobj)
}

// IfpMdSubheap builds a subheap-scheme pointer tag.
func (m *Machine) IfpMdSubheap(addr uint64, cr, subobj uint16) uint64 {
	m.tick1(&m.C.IfpMd)
	return tag.MakeSubheap(addr, cr, subobj)
}

// IfpMdGlobal builds a global-table-scheme pointer tag.
func (m *Machine) IfpMdGlobal(addr uint64, index uint16) uint64 {
	m.tick1(&m.C.IfpMd)
	return tag.MakeGlobal(addr, index)
}

// boundsSpillBytes is the in-memory footprint of a spilled bounds register
// (two 48-bit words stored as two 8-byte words).
const boundsSpillBytes = 16

// validMark flags a serialized bounds register as valid (bit 63 of the
// upper word; the architectural bounds are 48-bit so the bit is spare).
const validMark = uint64(1) << 63

// LdBnd implements the ldbnd instruction: load a 96-bit bounds register
// from memory (used across spills and callee-saved save/restore, §4.1.2).
func (m *Machine) LdBnd(addr uint64) (BoundsReg, error) {
	m.tick1(&m.C.LdBnd)
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, boundsSpillBytes, false) {
		m.dataAccess(addr, boundsSpillBytes, false)
	}
	lo, ok := m.Mem.TryLoad64(addr)
	hi, ok2 := m.Mem.TryLoad64(addr + 8)
	if !ok || !ok2 {
		var err error
		if lo, err = m.Mem.Load64(addr); err != nil {
			return Cleared, &Trap{Kind: TrapMemory, Ptr: addr, Msg: err.Error()}
		}
		if hi, err = m.Mem.Load64(addr + 8); err != nil {
			return Cleared, &Trap{Kind: TrapMemory, Ptr: addr, Msg: err.Error()}
		}
	}
	if hi&validMark == 0 {
		return Cleared, nil
	}
	return BoundsReg{B: layout.Bounds{Lower: lo & tag.AddrMask, Upper: hi & tag.AddrMask}, Valid: true}, nil
}

// StBnd implements the stbnd instruction: store a bounds register to
// memory. Cleared bounds serialize with the valid mark unset.
func (m *Machine) StBnd(addr uint64, breg BoundsReg) error {
	m.tick1(&m.C.StBnd)
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, boundsSpillBytes, true) {
		m.dataAccess(addr, boundsSpillBytes, true)
	}
	var lo, hi uint64
	if breg.Valid {
		lo, hi = breg.B.Lower, breg.B.Upper|validMark
	}
	if m.Mem.TryStore64(addr, lo) && m.Mem.TryStore64(addr+8, hi) {
		return nil
	}
	// The full path may store lo a second time, with the same value.
	if err := m.Mem.Store64(addr, lo); err != nil {
		return &Trap{Kind: TrapMemory, Ptr: addr, Msg: err.Error()}
	}
	if err := m.Mem.Store64(addr+8, hi); err != nil {
		return &Trap{Kind: TrapMemory, Ptr: addr, Msg: err.Error()}
	}
	return nil
}

// ClearBounds models the implicit bounds clearing of §4.1.2: when a GPR
// involved in argument/return passing is written by a pre-existing RISC-V
// instruction (i.e. by uninstrumented code), the paired bounds register is
// cleared by hardware, so instrumented callers never pick up stale bounds.
// It costs nothing: the clearing rides on the existing writeback.
func (m *Machine) ClearBounds() BoundsReg { return Cleared }

package machine

import (
	"errors"

	"infat/internal/layout"
	"infat/internal/metadata"
	"infat/internal/tag"
)

// Promote implements the promote instruction (Figure 5 + Figure 2): it
// takes a tagged pointer and produces an IFPR — the pointer (with poison
// bits refreshed) plus a bounds register holding the retrieved bounds.
//
// Flow, exactly per Figure 5:
//  1. An Invalid-poisoned pointer bypasses retrieval entirely: metadata
//     lookup with a garbage address could fault or false-positive (§3.2).
//  2. A legacy pointer (scheme selector 00, which includes NULL) has its
//     bounds cleared and is not subject to checking.
//  3. Otherwise the scheme selector dispatches the object-metadata lookup;
//     fetched-but-invalid metadata poisons the output IFPR.
//  4. If the metadata carries a layout table and the subobject index is
//     non-zero, subobject bounds narrowing runs (Figure 2, §3.4).
//
// Promote also fuses a check (§4.1): the output pointer's poison bits are
// set from its position relative to the retrieved bounds.
func (m *Machine) Promote(p uint64) (uint64, BoundsReg) {
	m.C.Instrs++
	m.C.Promote++
	m.C.Cycles++

	if m.NoPromote {
		// §5.2's no-promote variant: same cost as a nop, every pointer
		// treated as legacy.
		return p, Cleared
	}

	if ps := tag.PoisonOf(p); ps == tag.Invalid || (m.TemporalTags && ps == tag.Stale) {
		// A Stale pointer stays stale across re-promotion in temporal
		// mode: the generation mismatch already proved the chunk was
		// freed, and a later reallocation must not re-validate it. In
		// spatial modes 0b10 is an undefined encoding and falls through
		// to the lookup as before, so this branch changes nothing there.
		m.C.PromotePoison++
		return p, Cleared
	}
	if tag.IsLegacy(p) {
		if tag.Addr(p) == 0 {
			m.C.PromoteNull++
		} else {
			m.C.PromoteLegacy++
		}
		return p, Cleared
	}

	m.C.PromoteValid++
	m.C.Cycles += m.Cost.PromoteBase

	var (
		objBase, objSize uint64
		layoutPtr        uint64
		ok               bool
	)
	switch tag.SchemeOf(p) {
	case tag.SchemeLocalOffset:
		objBase, objSize, layoutPtr, ok = m.lookupLocal(p)
	case tag.SchemeSubheap:
		objBase, objSize, layoutPtr, ok = m.lookupSubheap(p)
	case tag.SchemeGlobalTable:
		objBase, objSize, layoutPtr, ok = m.lookupGlobal(p)
	}
	if !ok {
		m.C.PromoteFailed++
		return tag.WithPoison(p, tag.Invalid), Cleared
	}

	b := layout.Bounds{Lower: objBase, Upper: objBase + objSize}

	// Temporal mode: the 12 shared bits carry an allocation generation,
	// not a subobject index, so narrowing is skipped entirely and the
	// generation is compared against the store instead (DESIGN.md §14).
	// Schemes without a generation field (global-table) pass unchecked —
	// the same bit-budget trade-off that denies them narrowing.
	if m.TemporalTags {
		if g, has := tag.Gen(p); has {
			m.C.GenChecks++
			m.C.Cycles += m.Cost.GenCheckCycles
			if !tag.GenMatches(g, m.Gens.Gen(objBase), tag.GenBits(tag.SchemeOf(p))) {
				m.C.GenCheckFails++
				return tag.WithPoison(p, tag.Stale), Cleared
			}
		}
		ps := poisonFor(b, tag.Addr(p))
		if tag.PoisonOf(p) == tag.OOB {
			ps = tag.OOB
		}
		return tag.WithPoison(p, ps), BoundsReg{B: b, Valid: true}
	}

	// Subobject bounds narrowing (§3.4).
	if sub, has := tag.SubobjIndex(p); has && sub != 0 {
		m.C.NarrowAttempts++
		if m.NoNarrow {
			// Walker ablation: object-granularity protection only.
			m.C.NarrowCoarse++
		} else if layoutPtr == 0 {
			// The object metadata carries no layout-table information
			// (e.g. allocation through an opaque wrapper, §5.2.1:
			// CoreMark/bzip2); bounds coarsen to the object.
			m.C.NarrowCoarse++
		} else {
			nb, st, err := layout.Narrow(m.layoutFetcher(), layoutPtr,
				objBase, objSize, tag.Addr(p), sub)
			m.C.LayoutFetches += uint64(st.Fetches)
			m.C.LayoutDivisions += uint64(st.Divisions)
			m.C.Cycles += uint64(st.Divisions) * m.Cost.DivCycles
			switch {
			case err == nil:
				m.C.NarrowSuccess++
				b = nb
			case errors.Is(err, layout.ErrOutsideSub):
				// Pointer/type mismatch: the paper guarantees object-
				// bounds protection in this case (§3).
				m.C.NarrowCoarse++
				b = nb
			default:
				// Malformed table: irrecoverable.
				m.C.PromoteFailed++
				return tag.WithPoison(p, tag.Invalid), Cleared
			}
		}
	}

	// Fused check: promote may only *downgrade* the poison state. An
	// OOB-poisoned pointer must stay OOB even when the retrieved bounds
	// contain its address: a one-past-the-end subheap pointer resolves to
	// the *neighbouring slot's* object, and trusting that would re-
	// validate a genuine overflow. (The local-offset and global-table
	// schemes are unambiguous — their tags name the object — but the
	// rule is uniform in hardware.)
	ps := poisonFor(b, tag.Addr(p))
	if tag.PoisonOf(p) == tag.OOB {
		ps = tag.OOB
	}
	return tag.WithPoison(p, ps), BoundsReg{B: b, Valid: true}
}

// fetchMetaWord reads one object-metadata word through the L1D, charging
// cycles; promote's metadata traffic is unpipelined in the prototype
// (§5.2.2), which the PromoteBase constant already covers. An untimed
// machine skips the L1D and charges the base cycle only.
func (m *Machine) fetchMetaWord(addr uint64) (uint64, bool) {
	m.C.MetaFetches++
	m.C.Cycles++
	if !m.Untimed {
		m.C.Cycles += uint64(m.L1D.Access(addr, 8, false)) * m.Cost.MissPenalty
	}
	v, err := m.Mem.Load64(addr)
	if err != nil {
		return 0, false
	}
	return v, true
}

// fetchMetaWords reads n=len(w) consecutive metadata words through the
// L1D with one tag probe per line (cache.AccessWords); counters and cycle
// charges are identical to n fetchMetaWord calls. Reordering the cache
// probes before the memory reads is sound because the cache model never
// reads memory and the memory never consults the cache. A non-wrapping
// range cannot fault (Load64 only faults on address wrap), so the batched
// path charges everything up front and reads a record within one page
// through a single translation; a record crossing a page boundary reads
// word by word, and the wrap fallback — unreachable from real metadata
// addresses, which live in the 48-bit tagged space — keeps word-at-a-time
// fault ordering.
func (m *Machine) fetchMetaWords(addr uint64, w []uint64) bool {
	n := uint64(len(w))
	if addr+n*8 < addr {
		for i := range w {
			v, ok := m.fetchMetaWord(addr + uint64(i)*8)
			if !ok {
				return false
			}
			w[i] = v
		}
		return true
	}
	m.C.MetaFetches += n
	m.C.Cycles += n
	if !m.Untimed {
		m.C.Cycles += uint64(m.L1D.AccessWords(addr, len(w))) * m.Cost.MissPenalty
	}
	if m.Mem.LoadWords(addr, w) {
		return true
	}
	for i := range w {
		v, err := m.Mem.Load64(addr + uint64(i)*8)
		if err != nil {
			return false
		}
		w[i] = v
	}
	return true
}

// layoutFetcher adapts fetchMetaWords to the layout walker's interface,
// charging each entry fetch (two words, but the entry is 16-byte aligned
// so it is a single line touch in practice).
func (m *Machine) layoutFetcher() layout.FetchFunc {
	return func(entryAddr uint64) (uint64, uint64, error) {
		var w [2]uint64
		if !m.fetchMetaWords(entryAddr, w[:]) {
			return 0, 0, layout.ErrBadTable
		}
		return w[0], w[1], nil
	}
}

// lookupLocal implements the local-offset metadata lookup (Figure 6): the
// tag's granule offset reaches the metadata appended to the object; the
// object base is derived from the metadata address and the stored size.
func (m *Machine) lookupLocal(p uint64) (base, size, layoutPtr uint64, ok bool) {
	off, _ := tag.LocalFields(p)
	metaAddr := metadata.LocalMetaAddr(tag.Addr(p), off)
	var w [2]uint64
	if !m.fetchMetaWords(metaAddr, w[:]) {
		return 0, 0, 0, false
	}
	md := metadata.DecodeLocal(w[0], w[1])
	if md.Size == 0 || uint64(md.Size) > tag.MaxLocalObjectSize {
		return 0, 0, 0, false
	}
	base = metadata.LocalObjectBase(metaAddr, md.Size)
	m.C.Cycles += m.Cost.MacCycles
	if m.objectMAC(metadata.LocalMACFields(base, md.Size, md.LayoutPtr)) != md.MAC {
		return 0, 0, 0, false
	}
	return base, uint64(md.Size), md.LayoutPtr, true
}

// lookupSubheap implements the subheap metadata lookup (Figure 7): the
// tag's control-register index selects block geometry; the block's shared
// metadata locates the slot containing the pointer.
func (m *Machine) lookupSubheap(p uint64) (base, size, layoutPtr uint64, ok bool) {
	crIdx, _ := tag.SubheapFields(p)
	cr := m.CRs[crIdx]
	if !cr.Valid {
		return 0, 0, 0, false
	}
	metaAddr := cr.MetaAddr(tag.Addr(p))
	var w [4]uint64
	if !m.fetchMetaWords(metaAddr, w[:]) {
		return 0, 0, 0, false
	}
	md := metadata.DecodeSubheap(w)
	blockBase := cr.BlockBase(tag.Addr(p))
	m.C.Cycles += m.Cost.MacCycles
	if m.objectMAC(metadata.SubheapMACFields(blockBase, md)) != md.MAC {
		return 0, 0, 0, false
	}
	// Slot division: the paper constrains slot sizes to keep this cheap
	// (§3.3.2: power of two or fixed integer multiple of power of two).
	m.C.Cycles += m.Cost.SlotDivCycles
	objBase, okSlot := md.Slot(blockBase, tag.Addr(p))
	if !okSlot {
		return 0, 0, 0, false
	}
	return objBase, uint64(md.ObjSize), md.LayoutPtr, true
}

// lookupGlobal implements the global-table lookup (Figure 8): the tag's
// 12-bit index selects a row of the table at GlobalBase.
func (m *Machine) lookupGlobal(p uint64) (base, size, layoutPtr uint64, ok bool) {
	idx := tag.GlobalIndex(p)
	if m.GlobalBase == 0 || uint32(idx) >= m.GlobalCap {
		return 0, 0, 0, false
	}
	rowAddr := metadata.RowAddr(m.GlobalBase, idx)
	var w [2]uint64
	if !m.fetchMetaWords(rowAddr, w[:]) {
		return 0, 0, 0, false
	}
	row := metadata.DecodeGlobalRow(w[0], w[1])
	if row.IsFree() {
		return 0, 0, 0, false
	}
	return row.Base, row.Size, row.LayoutPtr, true
}

// Package tag implements the In-Fat Pointer tag encoding from Figure 4 of
// the paper: the top 16 bits of a 64-bit pointer hold 2 poison bits, a
// 2-bit scheme selector, and 12 bits shared between scheme metadata and a
// subobject index. The split of those 12 bits depends on the scheme:
//
//	local-offset: 6-bit granule offset | 6-bit subobject index
//	subheap:      4-bit control-register index | 8-bit subobject index
//	global-table: 12-bit table index (no subobject index)
//
// A pointer whose selector is SchemeLegacy (the canonical-address pattern,
// all zero) carries no metadata and is exempt from bounds checking.
package tag

import "fmt"

// Width constants of the tag fields (Figure 4).
const (
	// TagBits is the total tag width at the top of each pointer.
	TagBits = 16
	// AddrBits is the number of significant address bits below the tag.
	AddrBits = 64 - TagBits

	poisonShift   = 62
	selectorShift = 60
	metaShift     = AddrBits // scheme metadata + subobject index live at bits 48..59

	poisonMask   = uint64(0b11) << poisonShift
	selectorMask = uint64(0b11) << selectorShift
	metaMask     = uint64(0xFFF) << metaShift

	// AddrMask selects the 48-bit address portion of a pointer.
	AddrMask = uint64(1)<<AddrBits - 1
)

// Poison is the 2-bit pointer validity state (§3.2). Standard loads and
// stores trap unless the state is Valid; promote refuses to retrieve
// metadata for Invalid pointers; OOB is recoverable (e.g. off-by-one
// one-past-the-end pointers that are never dereferenced).
type Poison uint8

const (
	// Valid means the pointer points within its bounds.
	Valid Poison = 0b00
	// OOB means out-of-bounds but recoverable (notably one-past-the-end).
	OOB Poison = 0b01
	// Stale marks a pointer whose allocation generation no longer matches
	// the generation store: the chunk it points into was freed after the
	// pointer was derived. Only the temporal mode (ModeIFPTemporal)
	// produces this encoding; the spatial modes leave 0b10 unused.
	Stale Poison = 0b10
	// Invalid means the pointer hit an irrecoverable error (bad metadata,
	// indexing after a failed check) and must never be dereferenced.
	Invalid Poison = 0b11
)

func (p Poison) String() string {
	switch p {
	case Valid:
		return "valid"
	case OOB:
		return "oob"
	case Stale:
		return "stale"
	case Invalid:
		return "invalid"
	}
	return fmt.Sprintf("poison(%#b)", uint8(p))
}

// Scheme is the 2-bit object-metadata scheme selector (§3.2, §3.3). The
// all-zero pattern is reserved for legacy pointers so that canonical
// addresses from uninstrumented code decode as carrying no metadata.
type Scheme uint8

const (
	// SchemeLegacy marks a pointer with no metadata (canonical address).
	SchemeLegacy Scheme = 0b00
	// SchemeLocalOffset locates metadata appended to the object (§3.3.1).
	SchemeLocalOffset Scheme = 0b01
	// SchemeSubheap locates shared metadata inside a power-of-2 block
	// described by a control register (§3.3.2).
	SchemeSubheap Scheme = 0b10
	// SchemeGlobalTable indexes a row of the global metadata table (§3.3.3).
	SchemeGlobalTable Scheme = 0b11
)

func (s Scheme) String() string {
	switch s {
	case SchemeLegacy:
		return "legacy"
	case SchemeLocalOffset:
		return "local-offset"
	case SchemeSubheap:
		return "subheap"
	case SchemeGlobalTable:
		return "global-table"
	}
	return fmt.Sprintf("scheme(%#b)", uint8(s))
}

// Per-scheme field widths within the 12 scheme-metadata + subobject bits.
const (
	// LocalOffsetBits is the width of the granule-offset field.
	LocalOffsetBits = 6
	// LocalSubobjBits is the width of the local-offset subobject index.
	LocalSubobjBits = 6
	// SubheapCRBits is the width of the subheap control-register index.
	SubheapCRBits = 4
	// SubheapSubobjBits is the width of the subheap subobject index.
	SubheapSubobjBits = 8
	// GlobalIndexBits is the width of the global-table row index.
	GlobalIndexBits = 12

	// MaxLocalOffset is the largest encodable granule offset.
	MaxLocalOffset = 1<<LocalOffsetBits - 1
	// MaxLocalSubobj is the largest local-offset subobject index.
	MaxLocalSubobj = 1<<LocalSubobjBits - 1
	// MaxSubheapCR is the largest subheap control-register index.
	MaxSubheapCR = 1<<SubheapCRBits - 1
	// MaxSubheapSubobj is the largest subheap subobject index.
	MaxSubheapSubobj = 1<<SubheapSubobjBits - 1
	// MaxGlobalIndex is the largest global-table row index.
	MaxGlobalIndex = 1<<GlobalIndexBits - 1

	// NumSubheapCRs is the number of subheap control registers (§3.3.2).
	NumSubheapCRs = MaxSubheapCR + 1
)

// Granule is the local-offset scheme's alignment granule in bytes
// (§3.3.1: 16 bytes in the prototype). The scheme can describe objects up
// to (2^6-1)*16 = 1008 bytes.
const Granule = 16

// MaxLocalObjectSize is the local-offset scheme's object size cap: the
// metadata must be reachable within MaxLocalOffset granules of any granule-
// aligned address inside the object.
const MaxLocalObjectSize = MaxLocalOffset * Granule

// Addr extracts the 48-bit address portion of a tagged pointer.
func Addr(p uint64) uint64 { return p & AddrMask }

// PoisonOf extracts the poison bits of a pointer.
func PoisonOf(p uint64) Poison { return Poison(p >> poisonShift) }

// WithPoison returns p with its poison bits replaced.
func WithPoison(p uint64, ps Poison) uint64 {
	return p&^poisonMask | uint64(ps)<<poisonShift
}

// SchemeOf extracts the scheme-selector bits of a pointer.
func SchemeOf(p uint64) Scheme { return Scheme(p >> selectorShift & 0b11) }

// WithScheme returns p with its scheme selector replaced.
func WithScheme(p uint64, s Scheme) uint64 {
	return p&^selectorMask | uint64(s)<<selectorShift
}

// Meta extracts the raw 12-bit scheme-metadata + subobject-index field.
func Meta(p uint64) uint16 { return uint16(p >> metaShift & 0xFFF) }

// WithMeta returns p with the raw 12-bit field replaced.
func WithMeta(p uint64, m uint16) uint64 {
	return p&^metaMask | uint64(m&0xFFF)<<metaShift
}

// IsLegacy reports whether p carries no metadata: the selector is the
// canonical (legacy) pattern. NULL pointers are legacy pointers.
func IsLegacy(p uint64) bool { return SchemeOf(p) == SchemeLegacy }

// --- Local-offset scheme fields (Figure 6) ---

// LocalFields unpacks the local-offset tag: the granule offset from the
// (granule-truncated) current address to the metadata, and the subobject
// index.
func LocalFields(p uint64) (offset, subobj uint16) {
	m := Meta(p)
	return m >> LocalSubobjBits, m & MaxLocalSubobj
}

// MakeLocal builds a valid local-offset pointer from an address, granule
// offset to metadata, and subobject index. It panics if a field is out of
// range — callers (the runtime and compiler instrumentation) must size-check
// first; the hardware never constructs out-of-range fields.
func MakeLocal(addr uint64, offset, subobj uint16) uint64 {
	if offset > MaxLocalOffset {
		panic(fmt.Sprintf("tag: local-offset granule offset %d > %d", offset, MaxLocalOffset))
	}
	if subobj > MaxLocalSubobj {
		panic(fmt.Sprintf("tag: local-offset subobject index %d > %d", subobj, MaxLocalSubobj))
	}
	p := addr & AddrMask
	p = WithScheme(p, SchemeLocalOffset)
	return WithMeta(p, offset<<LocalSubobjBits|subobj)
}

// --- Subheap scheme fields (Figure 7) ---

// SubheapFields unpacks the subheap tag: the control-register index and the
// subobject index.
func SubheapFields(p uint64) (cr, subobj uint16) {
	m := Meta(p)
	return m >> SubheapSubobjBits, m & MaxSubheapSubobj
}

// MakeSubheap builds a valid subheap pointer from an address, control
// register index and subobject index.
func MakeSubheap(addr uint64, cr, subobj uint16) uint64 {
	if cr > MaxSubheapCR {
		panic(fmt.Sprintf("tag: subheap CR index %d > %d", cr, MaxSubheapCR))
	}
	if subobj > MaxSubheapSubobj {
		panic(fmt.Sprintf("tag: subheap subobject index %d > %d", subobj, MaxSubheapSubobj))
	}
	p := addr & AddrMask
	p = WithScheme(p, SchemeSubheap)
	return WithMeta(p, cr<<SubheapSubobjBits|subobj)
}

// --- Global-table scheme fields (Figure 8) ---

// GlobalIndex unpacks the 12-bit global-table row index. The global-table
// scheme has no subobject index (§3.3.3): all 12 bits are consumed by the
// lookup, so global-table pointers cannot narrow bounds during promote.
func GlobalIndex(p uint64) uint16 { return Meta(p) }

// MakeGlobal builds a valid global-table pointer from an address and row
// index.
func MakeGlobal(addr uint64, index uint16) uint64 {
	if index > MaxGlobalIndex {
		panic(fmt.Sprintf("tag: global-table index %d > %d", index, MaxGlobalIndex))
	}
	p := addr & AddrMask
	p = WithScheme(p, SchemeGlobalTable)
	return WithMeta(p, index)
}

// SubobjIndex returns the subobject-index field of p under its own scheme,
// or 0 (and false) if the scheme has no subobject index (legacy and
// global-table pointers).
func SubobjIndex(p uint64) (uint16, bool) {
	switch SchemeOf(p) {
	case SchemeLocalOffset:
		_, s := LocalFields(p)
		return s, true
	case SchemeSubheap:
		_, s := SubheapFields(p)
		return s, true
	}
	return 0, false
}

// WithSubobjIndex returns p with its subobject-index field replaced; it is
// the data path of the ifpidx instruction. Setting an index on a scheme
// without one (or an out-of-range index) poisons the pointer Invalid, since
// the instrumented program asked for narrowing the hardware cannot express.
func WithSubobjIndex(p uint64, idx uint16) uint64 {
	switch SchemeOf(p) {
	case SchemeLocalOffset:
		if idx > MaxLocalSubobj {
			return WithPoison(p, Invalid)
		}
		off, _ := LocalFields(p)
		return WithMeta(p, off<<LocalSubobjBits|idx)
	case SchemeSubheap:
		if idx > MaxSubheapSubobj {
			return WithPoison(p, Invalid)
		}
		cr, _ := SubheapFields(p)
		return WithMeta(p, cr<<SubheapSubobjBits|idx)
	case SchemeGlobalTable:
		// The global-table scheme has no subobject-index bits (§3.3.3:
		// "objects using the global table scheme cannot narrow pointer
		// bounds in promote"); the update is dropped and protection
		// stays at object granularity.
		return p
	}
	// Legacy pointers carry no metadata; narrowing requests are ignored
	// (the pointer remains unchecked, matching the paper's partial
	// protection for legacy code).
	return p
}

// --- Generation fields (temporal mode) ---
//
// ModeIFPTemporal repurposes the subobject-index bits as an allocation
// generation: 6 bits under the local-offset scheme, 8 under subheap. The
// global-table scheme spends all 12 bits on the row index and therefore
// carries no generation (its pointers are temporally unchecked — the
// same trade-off that denies it subobject narrowing). Legacy pointers
// carry no tag at all.

// GenBits returns the width of the generation field available under
// scheme s (0 if the scheme cannot carry one).
func GenBits(s Scheme) int {
	switch s {
	case SchemeLocalOffset:
		return LocalSubobjBits
	case SchemeSubheap:
		return SubheapSubobjBits
	}
	return 0
}

// Gen returns the allocation generation stamped in p's tag, and whether
// p's scheme carries one. It is the temporal-mode reading of the same
// bits SubobjIndex decodes spatially.
func Gen(p uint64) (uint16, bool) { return SubobjIndex(p) }

// WithGen returns p with its generation field replaced by g truncated to
// the scheme's field width. Schemes without a generation field (legacy,
// global-table) return p unchanged: such pointers cannot be temporally
// checked and must not be poisoned for it.
func WithGen(p uint64, g uint32) uint64 {
	switch SchemeOf(p) {
	case SchemeLocalOffset:
		off, _ := LocalFields(p)
		return WithMeta(p, off<<LocalSubobjBits|uint16(g)&MaxLocalSubobj)
	case SchemeSubheap:
		cr, _ := SubheapFields(p)
		return WithMeta(p, cr<<SubheapSubobjBits|uint16(g)&MaxSubheapSubobj)
	}
	return p
}

// GenMatches reports whether pointer generation pg (already truncated to
// the scheme's field width) matches store generation sg under a field of
// the given width.
func GenMatches(pg uint16, sg uint32, bits int) bool {
	if bits <= 0 {
		return true
	}
	return pg == uint16(sg)&(1<<bits-1)
}

// Format renders a tagged pointer for diagnostics.
func Format(p uint64) string {
	s := SchemeOf(p)
	switch s {
	case SchemeLocalOffset:
		off, sub := LocalFields(p)
		return fmt.Sprintf("%s[%s off=%d sub=%d]@%#x", PoisonOf(p), s, off, sub, Addr(p))
	case SchemeSubheap:
		cr, sub := SubheapFields(p)
		return fmt.Sprintf("%s[%s cr=%d sub=%d]@%#x", PoisonOf(p), s, cr, sub, Addr(p))
	case SchemeGlobalTable:
		return fmt.Sprintf("%s[%s idx=%d]@%#x", PoisonOf(p), s, GlobalIndex(p), Addr(p))
	}
	return fmt.Sprintf("%s[legacy]@%#x", PoisonOf(p), Addr(p))
}

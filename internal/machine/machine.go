// Package machine simulates the modified CVA6 core of §4: the IFP unit,
// bounds registers (IFPRs), subheap/global-table control registers, the
// Table-3 instruction set, implicit checking, and a cycle model calibrated
// to a single-issue in-order pipeline with an L1 data cache.
//
// The machine is an architectural simulator, not an RTL model: it executes
// the *semantics* of each instruction bit-exactly (tags, metadata,
// narrowing, poison) and charges cycles according to a small cost model so
// that relative overheads — the quantities the paper's Figures 10-12
// report — are meaningful.
package machine

import (
	"errors"
	"fmt"

	"infat/internal/cache"
	"infat/internal/layout"
	"infat/internal/mac"
	"infat/internal/mem"
	"infat/internal/metadata"
	"infat/internal/tag"
	"infat/internal/temporal"
)

// BoundsReg is the 96-bit bounds register paired with a GPR to form a
// logical IFPR (§3.1). Valid=false models "bounds cleared": the pointer is
// not subject to checking (legacy pointers, or after implicit clearing).
type BoundsReg struct {
	B     layout.Bounds
	Valid bool
}

// Cleared is the bounds-cleared register value.
var Cleared = BoundsReg{}

// CostModel holds the cycle costs of the simulated pipeline. Defaults are
// calibrated to the paper's 50 MHz FPGA system: most instructions are
// single-cycle (§4.1: "implemented in the integer ALU and take a single
// cycle"); promote pays an un-pipelined IFP-unit cost plus its metadata
// memory traffic; the layout walker pays a multi-cycle division per
// array-of-struct level (§5.3).
type CostModel struct {
	MissPenalty   uint64 // extra cycles per L1D miss
	PromoteBase   uint64 // fixed IFP-unit occupancy per metadata-fetching promote
	DivCycles     uint64 // layout-walker division (unconstrained divisor, §5.3)
	SlotDivCycles uint64 // subheap slot division (divisor constrained cheap, §3.3.2)
	MacCycles     uint64 // MAC verify/generate latency
	// GenCheckCycles is the temporal-mode generation comparison charged
	// per metadata-fetching promote (ModeIFPTemporal only): an equality
	// compare of the tag's generation field against the generation store,
	// a narrow-width comparator in the IFP unit (hwcost models its area).
	GenCheckCycles uint64
}

// DefaultCost is the standard calibration.
var DefaultCost = CostModel{MissPenalty: 20, PromoteBase: 2, DivCycles: 12, SlotDivCycles: 2, MacCycles: 2, GenCheckCycles: 1}

// Counters accumulates the dynamic event counts the evaluation reports
// (Table 4, Figure 11) plus cycle and cache-side statistics.
type Counters struct {
	Instrs uint64 // all dynamic instructions, baseline + IFP
	Cycles uint64
	Loads  uint64
	Stores uint64

	Promote       uint64 // promote instructions executed
	PromoteNull   uint64 // bypassed: NULL operand
	PromoteLegacy uint64 // bypassed: non-null legacy operand
	PromotePoison uint64 // bypassed: invalid-poisoned operand
	PromoteValid  uint64 // performed an object-metadata lookup
	PromoteFailed uint64 // metadata fetched but invalid -> output poisoned

	NarrowAttempts uint64 // valid promotes with a non-zero subobject index
	NarrowSuccess  uint64 // subobject bounds produced
	NarrowCoarse   uint64 // coarsened to object bounds (no layout table / type mismatch)

	IfpAdd, IfpIdx, IfpBnd, IfpChk, IfpMac, IfpMd, IfpExtract uint64
	LdBnd, StBnd                                              uint64

	Checks      uint64 // bounds checks performed (implicit + explicit + fused)
	CheckFails  uint64
	PoisonTraps uint64

	MetaFetches     uint64 // object-metadata words fetched
	LayoutFetches   uint64 // layout-table entries fetched
	LayoutDivisions uint64

	GenChecks     uint64 // temporal-mode generation comparisons performed
	GenCheckFails uint64 // stale generations detected (use-after-free)
	TemporalTraps uint64 // TrapTemporal traps raised
}

// IfpArith is Figure 11's "IFP Arithmetic" class: every single-cycle IFP
// instruction (tag updates, bounds creation, checks, MAC, metadata setup).
func (c *Counters) IfpArith() uint64 {
	return c.IfpAdd + c.IfpIdx + c.IfpBnd + c.IfpChk + c.IfpMac + c.IfpMd + c.IfpExtract
}

// IfpBoundsMem is Figure 11's "IFP Bounds Load/Store" class.
func (c *Counters) IfpBoundsMem() uint64 { return c.LdBnd + c.StBnd }

// IfpTotal is every instruction introduced by In-Fat Pointer.
func (c *Counters) IfpTotal() uint64 { return c.Promote + c.IfpArith() + c.IfpBoundsMem() }

// Machine is the simulated core plus its memory system.
type Machine struct {
	Mem *mem.Memory
	L1D *cache.Cache
	Key mac.Key

	// CRs are the 16 subheap control registers (§3.3.2).
	CRs [tag.NumSubheapCRs]metadata.CR
	// GlobalBase/GlobalCap describe the global metadata table (§3.3.3).
	GlobalBase uint64
	GlobalCap  uint32

	Cost CostModel
	C    Counters

	// NoPromote makes promote behave as a nop that treats every pointer
	// as legacy (the paper's no-promote variant, §5.2: "promote has the
	// same cost as a nop").
	NoPromote bool

	// NoNarrow disables the layout-table walker: promote coarsens every
	// subobject-indexed pointer to object bounds. This is the §5.3
	// area-saving ablation ("the IFP implementation may simplify or drop
	// support for layout table"), trading subobject granularity away.
	NoNarrow bool

	// FuelLimit bounds a run's dynamic cost in cycles: when non-zero,
	// CheckFuel trips a TrapFuel resource trap once C.Cycles reaches the
	// limit. This is not an architectural feature of the paper's core —
	// it is the execution budget the analysis service (internal/server)
	// uses so that a guest infinite loop cannot pin a server worker. Zero
	// means unlimited (the default for local CLI and experiment runs).
	FuelLimit uint64

	// TemporalTags switches the 12 shared metadata/subobject tag bits
	// from a subobject index to an allocation generation (ModeIFPTemporal,
	// DESIGN.md §14): promote skips subobject narrowing and instead
	// compares the pointer's generation field against Gens, poisoning
	// mismatches Stale; dereferencing a Stale pointer raises TrapTemporal.
	// Off (the default) in every spatial mode — with it off, Gens is
	// never consulted and Stale is never produced.
	TemporalTags bool
	// Gens is the generation store consulted when TemporalTags is set.
	// The runtime that owns the machine stamps generations at malloc and
	// bumps them on free; the machine only reads it.
	Gens *temporal.Store

	// Untimed skips the L1D model: data accesses and metadata fetches
	// charge their base cycle but never probe the cache, so no miss
	// cycles accrue and the cache statistics stay zero. Everything else —
	// checks, promote, metadata, MAC verification, narrowing, guest
	// memory — runs exactly as before, and every counter but Cycles is
	// unchanged: the cache model never reads or writes guest memory, so
	// skipping it cannot change what the guest computes (DESIGN.md §12).
	// The evaluation harness sets it for Figure-12 memory cells, which
	// keep only the footprint.
	Untimed bool

	// macKey and macMemo memoize the MAC promote verifies on every
	// metadata lookup (and ifpmac generates), so the host computes each
	// (key, record) pair's SipHash once; see objectMAC. The hardware's
	// fixed MacCycles latency is charged either way.
	macKey  mac.Key
	macMemo [macMemoSize]macEntry
}

// macMemoBits sizes the MAC memo: 2048 direct-mapped entries of 32 bytes,
// 64 KiB per machine. Over a serial report pass it answers all but a few
// hundred of the subheap cells' checks and 62% of the wrapped memory
// cells' (52% at 1024 entries, 72% at 4096, which the report benchmark
// does not tell apart from 2048): their working set, one record per live
// object, outgrows any size worth its memory (DESIGN.md §12).
const (
	macMemoBits = 11
	macMemoSize = 1 << macMemoBits
)

// macFilled marks a filled macEntry: a MAC has 48 bits, so bit 63 is
// spare, and an entry whose mac word is zero is empty.
const macFilled = uint64(1) << 63

// macEntry is one memoized MAC: the mac.Object input triple, and the
// 48-bit MAC it yields under the memo's key, ORed with macFilled.
type macEntry struct {
	base, f2, f3 uint64
	mac          uint64
}

// macSlot is the memo index of a record with the given base: the top
// macMemoBits of a Fibonacci hash of its 16-byte granule number. Low base
// bits alone would put every 4 KiB-aligned subheap block's record in one
// slot, and make consecutive wrapped objects skip slots.
func macSlot(base uint64) uint64 {
	return (base >> 4) * 0x9e3779b97f4a7c15 >> (64 - macMemoBits)
}

// objectMAC returns mac.Object(m.Key, base, f2, f3), memoized. The memo
// holds one key and is cleared whenever m.Key differs from it (a chaos key
// swap, or Reset restoring the default key after one), and an entry
// matches only when all three fields are equal, so a hit returns exactly
// what mac.Object would: tampered metadata changes a field (a miss and an
// honest computation) or the stored MAC (a hit, still a mismatch). Entries
// are pure functions of key and fields, so they stay valid across Reset
// and across the modes a pooled machine serves.
func (m *Machine) objectMAC(base, f2, f3 uint64) uint64 {
	if m.Key != m.macKey {
		m.macMemo = [macMemoSize]macEntry{}
		m.macKey = m.Key
	}
	e := &m.macMemo[macSlot(base)]
	if e.mac != 0 && e.base == base && e.f2 == f2 && e.f3 == f3 {
		return e.mac &^ macFilled
	}
	got := mac.Object(m.Key, base, f2, f3)
	*e = macEntry{base: base, f2: f2, f3: f3, mac: got | macFilled}
	return got
}

// DefaultKeySeed seeds the MAC key of every freshly built (or reset)
// machine. A fixed seed keeps runs reproducible; chaos scenarios swap the
// key explicitly when they want mismatches.
const DefaultKeySeed = 0x1F2E3D4C

// New builds a machine with the default CVA6-like configuration.
func New() *Machine {
	return &Machine{
		Mem:  mem.New(),
		L1D:  cache.New(cache.CVA6L1D),
		Key:  mac.NewKey(DefaultKeySeed),
		Cost: DefaultCost,
	}
}

// Reset restores the machine to its New-time architectural state —
// memory unmapped, cache cold, default MAC key, control registers and
// global-table base cleared, default cost model, all counters zero, no
// ablation flags, no fuel limit, timed — while keeping the backing
// Memory and Cache structures for reuse. A reset machine is
// observationally identical to a fresh one.
func (m *Machine) Reset() {
	m.Mem.Reset()
	m.L1D.Reset()
	m.Key = mac.NewKey(DefaultKeySeed)
	m.CRs = [tag.NumSubheapCRs]metadata.CR{}
	m.GlobalBase, m.GlobalCap = 0, 0
	m.Cost = DefaultCost
	m.C = Counters{}
	m.NoPromote, m.NoNarrow = false, false
	m.FuelLimit = 0
	m.TemporalTags, m.Gens = false, nil
	m.Untimed = false
}

// TrapKind classifies architectural traps.
type TrapKind int

// Trap kinds.
const (
	// TrapPoison is a memory access through a non-valid-poisoned pointer.
	TrapPoison TrapKind = iota
	// TrapBounds is a failed fused/implicit access-size check.
	TrapBounds
	// TrapMetadata is invalid object metadata encountered by promote.
	TrapMetadata
	// TrapMemory is a memory-system fault (address wrap etc.).
	TrapMemory
	// TrapFuel is exhaustion of the run's execution budget (FuelLimit) —
	// a resource trap, not a spatial detection.
	TrapFuel
	// TrapAlloc is an allocator failure (arena/buddy exhaustion, metadata
	// table full, an injected fault): the runtime could not produce the
	// requested object. Like TrapFuel it is a resource trap, not a
	// spatial detection.
	TrapAlloc
	// TrapInternal is a recovered simulator panic: a bug in the simulator
	// itself, never a legitimate guest-visible outcome. RunC*/server
	// boundaries convert escaped panics into this kind so a hostile input
	// yields a classified error instead of killing the process; any
	// occurrence is counted and treated as a defect.
	TrapInternal
	// TrapTemporal is a temporal-safety detection (ModeIFPTemporal only):
	// a dereference through a stale-generation pointer (use-after-free)
	// or a free of a chunk whose stored generation is already ahead of
	// the freeing pointer (double free). Appended after TrapInternal so
	// every pre-existing kind keeps its numeric value.
	TrapTemporal
)

func (k TrapKind) String() string {
	switch k {
	case TrapPoison:
		return "poisoned-pointer"
	case TrapBounds:
		return "bounds"
	case TrapMetadata:
		return "metadata"
	case TrapMemory:
		return "memory"
	case TrapFuel:
		return "fuel"
	case TrapAlloc:
		return "alloc"
	case TrapInternal:
		return "internal"
	case TrapTemporal:
		return "temporal"
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap is the simulator's exception record.
type Trap struct {
	Kind TrapKind
	Ptr  uint64 // offending pointer (tagged)
	Size int    // access size, if applicable
	Msg  string
	// Cause is the underlying error, if the trap wraps one (allocator
	// traps keep the heap error that triggered them). Exposed through
	// Unwrap so errors.Is/errors.As see through the trap.
	Cause error
}

func (t *Trap) Error() string {
	return fmt.Sprintf("trap[%s] ptr=%s size=%d: %s", t.Kind, tag.Format(t.Ptr), t.Size, t.Msg)
}

// Unwrap exposes the trap's underlying cause to the errors package.
func (t *Trap) Unwrap() error { return t.Cause }

// IsTrap reports whether err is, or wraps (errors.As), a Trap of the
// given kind — so it classifies both a raw machine trap and the
// *minic.RunError the VM surfaces one inside.
func IsTrap(err error, kind TrapKind) bool {
	var t *Trap
	return errors.As(err, &t) && t.Kind == kind
}

// RecoverInternal converts an escaped panic into a TrapInternal error.
// Use it as `defer machine.RecoverInternal(&err)` at the outermost
// simulator boundaries (infat.RunC*, server workers): a simulator bug
// then surfaces as a typed, countable error instead of killing the
// process. The message records only the panic value — no stack, no
// goroutine IDs — so recovered traps stay deterministic across runs.
// Errors already in flight are left untouched.
func RecoverInternal(err *error) {
	if r := recover(); r != nil {
		*err = &Trap{Kind: TrapInternal, Msg: fmt.Sprintf("recovered panic: %v", r)}
	}
}

// CheckFuel reports budget exhaustion: a TrapFuel trap once the machine
// has consumed FuelLimit cycles (nil while within budget or when no
// limit is set). The MiniC VM polls it once per interpreted step, so a
// run is cut off on the first step at or past the limit — the trap may
// land a few cycles after the exact boundary, never before it.
func (m *Machine) CheckFuel() error {
	if m.FuelLimit != 0 && m.C.Cycles >= m.FuelLimit {
		return &Trap{Kind: TrapFuel,
			Msg: fmt.Sprintf("execution budget of %d cycles exhausted", m.FuelLimit)}
	}
	return nil
}

// Tick models n ordinary (non-memory) baseline instructions: the ALU work
// of the application itself. Workloads call it so that IFP instruction
// overhead is measured against a realistic instruction stream.
func (m *Machine) Tick(n uint64) {
	m.C.Instrs += n
	m.C.Cycles += n
}

// dataAccess charges a data-memory access's misses through the full L1D
// model. Every data access first charges its base cycle and tries the
// single-line MRU hit inline:
//
//	m.C.Cycles++
//	if !m.Untimed && !m.L1D.TryHit(addr, size, store) {
//		m.dataAccess(addr, size, store)
//	}
//
// TryHit's effect is exactly Access with zero misses, so the pair charges
// what Access alone would, in the same order; an untimed machine charges
// the base cycle only. The full model stays out of line, and the inline
// test stays out of a helper because no helper holding TryHit fits the
// inlining budget.
//
//go:noinline
func (m *Machine) dataAccess(addr uint64, size int, store bool) {
	m.C.Cycles += uint64(m.L1D.Access(addr, size, store)) * m.Cost.MissPenalty
}

// Load performs a checked load of size bytes through pointer p. breg is
// the bounds register paired with p's GPR; when it holds valid bounds the
// load-store unit performs the implicit access-size check (§4.1.1). All
// loads check poison bits (§3.2). An 8-byte word in a TLB-resident page
// is read inline (mem.TryLoad64); every other access, and every fault,
// takes LoadN.
func (m *Machine) Load(p uint64, size int, breg BoundsReg) (uint64, error) {
	m.C.Instrs++
	m.C.Loads++
	if !m.accessOK(p, size, breg) {
		return 0, m.checkTrap(p, size, breg)
	}
	addr := tag.Addr(p)
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, size, false) {
		m.dataAccess(addr, size, false)
	}
	if size == 8 {
		if v, ok := m.Mem.TryLoad64(addr); ok {
			return v, nil
		}
	}
	v, err := m.Mem.LoadN(addr, size)
	if err != nil {
		return 0, &Trap{Kind: TrapMemory, Ptr: p, Size: size, Msg: err.Error()}
	}
	return v, nil
}

// Store performs a checked store of the low size bytes of v through p,
// with Load's split between TryStore64 and StoreN.
func (m *Machine) Store(p uint64, v uint64, size int, breg BoundsReg) error {
	m.C.Instrs++
	m.C.Stores++
	if !m.accessOK(p, size, breg) {
		return m.checkTrap(p, size, breg)
	}
	addr := tag.Addr(p)
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, size, true) {
		m.dataAccess(addr, size, true)
	}
	if size == 8 && m.Mem.TryStore64(addr, v) {
		return nil
	}
	if err := m.Mem.StoreN(addr, v, size); err != nil {
		return &Trap{Kind: TrapMemory, Ptr: p, Size: size, Msg: err.Error()}
	}
	return nil
}

// accessOK is the fast half of the LSU-side access check: the poison test
// (§3.2) plus the implicit access-size check against the paired bounds
// register (§4.1.1). It performs the success-path counter update (Checks
// is charged before the bounds compare, like the hardware) but builds no
// error values, which keeps it inside the inlining budget of Load/Store;
// on failure checkTrap re-derives the cause out of line.
func (m *Machine) accessOK(p uint64, size int, breg BoundsReg) bool {
	if tag.PoisonOf(p) != tag.Valid {
		return false
	}
	if breg.Valid {
		m.C.Checks++
		return breg.B.Contains(tag.Addr(p), uint64(size))
	}
	return true
}

// checkTrap is the cold half of accessOK: it classifies the failure,
// charges the trap counter, and builds the Trap. accessOK has already
// charged Checks when the failure is a bounds miss.
func (m *Machine) checkTrap(p uint64, size int, breg BoundsReg) error {
	if ps := tag.PoisonOf(p); ps != tag.Valid {
		if ps == tag.Stale && m.TemporalTags {
			m.C.TemporalTraps++
			return &Trap{Kind: TrapTemporal, Ptr: p, Size: size,
				Msg: "use-after-free: dereference of stale-generation pointer"}
		}
		m.C.PoisonTraps++
		return &Trap{Kind: TrapPoison, Ptr: p, Size: size,
			Msg: fmt.Sprintf("dereference of %s pointer", ps)}
	}
	m.C.CheckFails++
	return &Trap{Kind: TrapBounds, Ptr: p, Size: size,
		Msg: fmt.Sprintf("access outside %v", breg.B)}
}

// RawLoad64 / RawStore64 are uninstrumented accesses used by the runtime
// itself (metadata initialization, allocator bookkeeping). They count as
// ordinary instructions — the paper's instrumentation overhead includes
// the runtime's own work — but perform no tag or bounds checks.
func (m *Machine) RawLoad64(addr uint64) (uint64, error) {
	m.C.Instrs++
	m.C.Loads++
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, 8, false) {
		m.dataAccess(addr, 8, false)
	}
	if v, ok := m.Mem.TryLoad64(addr); ok {
		return v, nil
	}
	return m.Mem.Load64(addr)
}

// RawStore64 stores one word without checks (runtime-internal).
func (m *Machine) RawStore64(addr uint64, v uint64) error {
	m.C.Instrs++
	m.C.Stores++
	m.C.Cycles++
	if !m.Untimed && !m.L1D.TryHit(addr, 8, true) {
		m.dataAccess(addr, 8, true)
	}
	if m.Mem.TryStore64(addr, v) {
		return nil
	}
	return m.Mem.Store64(addr, v)
}

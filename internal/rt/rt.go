// Package rt is the In-Fat Pointer runtime library (§4.2): it initializes
// the machine environment (global metadata table, subheap control
// registers), interns per-type layout tables into guest memory, registers
// local/global/heap objects under the appropriate metadata scheme, and
// provides the two §4.2.1 allocators — the *wrapped* allocator (over a
// glibc-style free list, using local-offset metadata with a global-table
// fallback) and the *subheap* allocator (a pool allocator over a buddy
// allocator).
//
// The pointer tag is the runtime's only record of how an object was
// registered: one function (place) applies §4.2.2's scheme choice for
// stack locals, globals and wrapped heap chunks alike, and release reads
// the scheme, the local-offset record and the global-table row back from
// the tag, as the hardware's promote does.
//
// A Runtime also runs in Baseline mode, where no instrumentation happens
// at all: workloads run the same code against plain, untagged pointers.
// Comparing an instrumented run against a Baseline run of the same
// workload is exactly the paper's Figure 10/11/12 methodology.
package rt

import (
	"fmt"

	"infat/internal/heap"
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/metadata"
	"infat/internal/tag"
	"infat/internal/temporal"
)

// Mode selects the allocator/instrumentation configuration of a run
// (§5.2: baseline, subheap-allocator version, wrapped-allocator version;
// the no-promote variants are the machine's NoPromote flag on top).
type Mode int

// Run modes.
const (
	// Baseline runs uninstrumented: legacy pointers, no metadata.
	Baseline Mode = iota
	// Subheap instruments with the subheap allocator for heap objects.
	Subheap
	// Wrapped instruments with the wrapped allocator for heap objects.
	Wrapped
	// Hybrid instruments with dynamic allocator selection — the §4.2.1
	// future-work exploration: allocation sites that repeatedly produce
	// the same (size, type) signature graduate to subheap pools (their
	// metadata amortizes), while one-off allocations stay on the cheaper-
	// to-set-up wrapped path.
	Hybrid
	// IFPTemporal is the xTag-style temporal extension (DESIGN.md §14):
	// Hybrid's allocator selection, but the 12 shared metadata/subobject
	// tag bits carry an allocation generation instead of a subobject
	// index. Free paths bump a per-chunk generation store, malloc stamps
	// the current generation, and promote/check paths trap TrapTemporal
	// on mismatch (use-after-free) or on freeing through a stale pointer
	// (double free). Subobject narrowing is unavailable — the bit budget
	// is spent on the generation — so protection is spatial at object
	// granularity plus temporal.
	IFPTemporal
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case Subheap:
		return "subheap"
	case Wrapped:
		return "wrapped"
	case Hybrid:
		return "hybrid"
	case IFPTemporal:
		return "ifp-temporal"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Modes lists every run configuration in declaration order.
var Modes = []Mode{Baseline, Subheap, Wrapped, Hybrid, IFPTemporal}

// ParseMode parses a mode name as spelled by the command-line flags and
// the ifp-serve request API (the String form of each Mode).
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want baseline, subheap, wrapped, hybrid, or ifp-temporal)", s)
}

// Guest address-space map. All regions are far apart; the memory is sparse
// so only touched pages cost footprint.
const (
	globalTableBase = 0x0001_0000
	globalTableCap  = tag.MaxGlobalIndex + 1

	layoutBase = 0x0010_0000
	layoutSize = 4 << 20

	globalsBase = 0x0100_0000
	globalsSize = 32 << 20

	stackBase = 0x0300_0000
	stackSize = 32 << 20

	flHeapBase = 0x1000_0000
	flHeapSize = 512 << 20

	buddyBase = 0x4000_0000
	buddyLog2 = 29 // 512 MiB region
	buddyMin  = 12 // 4 KiB min block
)

// Stats counts instrumented objects per category, the Table-4 left half.
// "WithLT" counts objects whose metadata includes layout-table
// information.
type Stats struct {
	GlobalObjects, GlobalWithLT uint64
	LocalObjects, LocalWithLT   uint64
	HeapObjects, HeapWithLT     uint64
	// HeapPool counts the heap objects served from subheap pools (the
	// rest took the wrapped or global-table paths) — the split Hybrid
	// mode's dynamic selection produces.
	HeapPool uint64
}

// Ptr is a tagged guest pointer.
type Ptr = uint64

// Runtime is one process environment.
type Runtime struct {
	M    *machine.Machine
	mode Mode

	// ifpAccess selects the access helpers' semantics: set by setMode for
	// every instrumented mode, cleared by FootprintOnly. The allocators,
	// layout interning and bounds spills test the mode instead.
	ifpAccess bool

	layoutArena *heap.Arena
	globalArena *heap.Arena
	stackArena  *heap.Arena
	fl          *heap.FreeList
	buddy       *heap.Buddy

	tables map[*layout.Type]*ltInfo

	// Global metadata table row management. liveRows has bit i set while
	// row i is handed out, so a second release of a row is rejected
	// instead of queueing the row twice.
	freeRows []uint16
	nextRow  uint16
	liveRows [globalTableCap / 64]uint64

	// Subheap pools. spareBlocks holds block records retired by a
	// whole-block free or a Reset, for newBlock to refill.
	pools       map[poolKey]*pool
	blocks      map[uint64]*block
	spareBlocks []*block
	crOfBits    map[uint8]uint16
	nextCR      int

	// ForceGlobalTable is the single-scheme ablation (DESIGN.md §5.2):
	// every heap allocation is registered in the global table, as a
	// design that spent all 12 tag bits on one lookup scheme would —
	// narrowing becomes impossible and the table's 4096-row capacity
	// becomes a real constraint.
	ForceGlobalTable bool

	// ExplicitChecks is the implicit-checking ablation (§4.1.1): every
	// checked access issues an explicit ifpchk instead of riding the
	// load-store unit's implicit check, costing one extra instruction
	// per access.
	ExplicitChecks bool

	// sigCount tracks how many allocations each (size, layout) signature
	// has seen, for Hybrid mode's graduation policy.
	sigCount map[poolKey]int

	// allocFaultAt is the one-shot injected-fault countdown armed by
	// InjectAllocFault (0 = disarmed).
	allocFaultAt int

	// gens is the temporal-mode allocation-generation store (one per
	// runtime, reset with it). Only consulted when mode == IFPTemporal;
	// the machine reads it through M.Gens during promote.
	gens *temporal.Store

	// rec records the allocation calls of a Baseline run (Record); nil
	// on every other run.
	rec *recorder

	Stats Stats
}

type ltInfo struct {
	table *layout.Table
	addr  uint64
}

// New creates a runtime in the given mode with a fresh machine.
func New(mode Mode) *Runtime {
	m := machine.New()
	// The buddy geometry is a package constant; a construction error here
	// is a provably-internal invariant violation (a broken address-space
	// map), never a guest-reachable condition — so panicking is correct.
	buddy, err := heap.NewBuddy(buddyBase, buddyLog2, buddyMin)
	if err != nil {
		panic(err)
	}
	r := &Runtime{
		M:           m,
		layoutArena: heap.NewArena(layoutBase, layoutSize),
		globalArena: heap.NewArena(globalsBase, globalsSize),
		stackArena:  heap.NewArena(stackBase, stackSize),
		fl:          heap.NewFreeList(m, heap.NewArena(flHeapBase, flHeapSize)),
		buddy:       buddy,
		tables:      make(map[*layout.Type]*ltInfo),
		pools:       make(map[poolKey]*pool),
		blocks:      make(map[uint64]*block),
		crOfBits:    make(map[uint8]uint16),
		sigCount:    make(map[poolKey]int),
		gens:        temporal.NewStore(),
	}
	r.setMode(mode)
	return r
}

// setMode switches the runtime, and the machine state its mode owns, to
// mode: every instrumented mode has a global metadata table, and
// IFPTemporal reads generations from the runtime's store during promote.
// The machine must be in its New or Reset state.
func (r *Runtime) setMode(mode Mode) {
	r.mode = mode
	r.ifpAccess = mode != Baseline
	if mode != Baseline {
		r.M.GlobalBase = globalTableBase
		r.M.GlobalCap = uint32(globalTableCap)
	}
	if mode == IFPTemporal {
		r.M.TemporalTags = true
		r.M.Gens = r.gens
	}
}

// Reset restores every New-time invariant — machine architectural state,
// empty arenas and allocators, no interned layout tables, no global-table
// rows, no pools, default ablation flags, zero stats — without
// reallocating the backing structures, and switches the runtime to the
// given mode. Layout tables are invalidated rather than kept: the layout
// arena rewinds to layoutBase, so re-interning the same types in the same
// order reproduces the same guest addresses a fresh runtime would assign,
// which is what keeps reused-vs-fresh runs byte-identical.
func (r *Runtime) Reset(mode Mode) {
	r.M.Reset()
	r.layoutArena.Reset()
	r.globalArena.Reset()
	r.stackArena.Reset()
	r.fl.Reset()
	r.buddy.Reset()
	clear(r.tables)
	r.freeRows = r.freeRows[:0]
	r.nextRow = 0
	clear(r.liveRows[:])
	clear(r.pools)
	for _, blk := range r.blocks {
		r.spareBlocks = append(r.spareBlocks, blk)
	}
	clear(r.blocks)
	clear(r.crOfBits)
	r.nextCR = 0
	clear(r.sigCount)
	r.ForceGlobalTable = false
	r.ExplicitChecks = false
	r.allocFaultAt = 0
	r.gens.Reset()
	r.rec = nil
	r.Stats = Stats{}
	r.setMode(mode)
}

// Mode returns the runtime's mode.
func (r *Runtime) Mode() Mode { return r.mode }

// Gens exposes the temporal generation store (always non-nil; only
// consulted in IFPTemporal mode). Chaos scenarios corrupt it directly and
// tests inspect it.
func (r *Runtime) Gens() *temporal.Store { return r.gens }

// Instrumented reports whether the run carries IFP instrumentation.
func (r *Runtime) Instrumented() bool { return r.mode != Baseline }

// FootprintOnly switches the run to the footprint-only path of Figure-12
// memory cells (DESIGN.md §12): everything that writes guest memory — the
// mode's allocators, layout interning, object registration and release,
// bounds spills — runs as in the mode, while LoadPtr, StorePtr, GEP,
// SetSub, Bnd and Promote take their Baseline semantics, and the machine
// runs untimed. Those helpers only read metadata or rewrite tags, so the
// run maps the same guest pages, computes the same checksum and counts
// the same Stats as the full path; the machine counters are not the
// mode's. Call it before the run; Reset restores the mode's semantics.
func (r *Runtime) FootprintOnly() {
	r.ifpAccess = false
	r.M.Untimed = true
}

// LayoutOf interns the layout table for t, writing it into guest memory on
// first use, and returns its guest address. Layout tables are generated at
// compile time (§3.1), so writing them is free of dynamic instructions —
// they are static data in the program image. All objects of a type share
// one table (§3.4).
func (r *Runtime) LayoutOf(t *layout.Type) (uint64, *layout.Table, error) {
	if t == nil {
		return 0, nil, nil
	}
	if info, ok := r.tables[t]; ok {
		return info.addr, info.table, nil
	}
	tb, err := layout.Build(t)
	if err != nil {
		return 0, nil, err
	}
	words := tb.Encode()
	addr, err := r.layoutArena.Sbrk(uint64(len(words)) * 8)
	if err != nil {
		return 0, nil, err
	}
	for i, w := range words {
		if err := r.M.Mem.Store64(addr+uint64(i)*8, w); err != nil {
			return 0, nil, err
		}
	}
	r.tables[t] = &ltInfo{table: tb, addr: addr}
	return addr, tb, nil
}

// SubobjIndexOf resolves a member path (e.g. "array[].v3") of t to the
// layout-table index the compiler would embed in ifpidx instrumentation.
func (r *Runtime) SubobjIndexOf(t *layout.Type, path string) (uint16, error) {
	_, tb, err := r.LayoutOf(t)
	if err != nil {
		return 0, err
	}
	if tb == nil {
		return 0, fmt.Errorf("rt: no layout table for nil type")
	}
	idx, ok := tb.IndexOf(path)
	if !ok {
		return 0, fmt.Errorf("rt: no subobject %q in %s", path, t.Name)
	}
	return idx, nil
}

// allocRow reserves a free global-table row.
func (r *Runtime) allocRow() (uint16, error) {
	var idx uint16
	switch n := len(r.freeRows); {
	case n > 0:
		idx = r.freeRows[n-1]
		r.freeRows = r.freeRows[:n-1]
	case int(r.nextRow) >= globalTableCap:
		return 0, fmt.Errorf("%w (%d rows)", ErrTableFull, globalTableCap)
	default:
		idx = r.nextRow
		r.nextRow++
	}
	r.liveRows[idx/64] |= 1 << (idx % 64)
	return idx, nil
}

// writeRow stores a global-table row; registration costs the two stores
// (runtime-library work, instrumented).
func (r *Runtime) writeRow(idx uint16, row metadata.GlobalRow) error {
	w := row.Encode()
	a := metadata.RowAddr(globalTableBase, idx)
	if err := r.M.RawStore64(a, w[0]); err != nil {
		return err
	}
	return r.M.RawStore64(a+8, w[1])
}

// registerGlobalRow allocates and fills a table row for an object.
func (r *Runtime) registerGlobalRow(base, size, layoutPtr uint64) (uint16, error) {
	if size > metadata.MaxGlobalObjectSize {
		return 0, fmt.Errorf("rt: object of %d bytes exceeds global-table size cap", size)
	}
	idx, err := r.allocRow()
	if err != nil {
		return 0, err
	}
	r.M.Tick(rowRegisterCost)
	if err := r.writeRow(idx, metadata.GlobalRow{Base: base, Size: size, LayoutPtr: layoutPtr}); err != nil {
		return 0, err
	}
	return idx, nil
}

// releaseGlobalRow zeroes and recycles a row. A row that is not live
// (never handed out, or already released) is rejected before anything is
// charged or written.
func (r *Runtime) releaseGlobalRow(idx uint16) error {
	bit := uint64(1) << (idx % 64)
	if r.liveRows[idx/64]&bit == 0 {
		return fmt.Errorf("rt: release of global-table row %d that is not live", idx)
	}
	r.M.Tick(rowRegisterCost)
	if err := r.writeRow(idx, metadata.GlobalRow{}); err != nil {
		return err
	}
	r.liveRows[idx/64] &^= bit
	r.freeRows = append(r.freeRows, idx)
	return nil
}

// Runtime-library call costs (dynamic instructions) beyond the explicit
// memory traffic: argument marshalling, branching, free-row search.
const (
	rowRegisterCost = 12
	localSetupCost  = 6
	poolAllocCost   = heap.PoolAllocCost
	poolFreeCost    = heap.PoolFreeCost
	blockSetupCost  = 30
)

// Footprint returns the guest pages currently backed — the simulator's
// maximum-resident-size analogue used by Figure 12 (pages are never
// returned, so this is a high-water mark).
func (r *Runtime) Footprint() uint64 { return r.M.Mem.MappedBytes() }

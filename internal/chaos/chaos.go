// Package chaos is a seeded, deterministic fault injector for the In-Fat
// Pointer simulator: it builds a known-good runtime scenario, injects one
// fault — a pointer-tag bit flip, corruption of a metadata scheme's
// backing storage, a mangled layout-table entry, a swapped MAC key, or a
// forced allocator failure — then exercises the corrupted state the way
// instrumented code would (promote, in-bounds accesses, a subobject-
// indexed access) and classifies the outcome into exactly one bucket:
//
//   - Detected:  the defense produced a typed trap of the expected class
//     (spatial/MAC for state corruption, allocator for forced failures).
//   - Tolerated: the run completed cleanly — a documented-by-design
//     escape of the paper's encoding (enumerated in DESIGN.md §10).
//   - Internal:  a recovered Go panic or an untyped/misclassified error —
//     a simulator bug. The campaign treats any internal outcome as a
//     failure.
//
// Every cell is a pure function of (scheme, fault, seed): same inputs,
// byte-identical outcome, at any parallelism — which is what lets the
// campaign (internal/exp) fan the grid over the worker pool and still
// render a reproducible report.
package chaos

import (
	"errors"
	"fmt"

	"infat/internal/layout"
	"infat/internal/mac"
	"infat/internal/machine"
	"infat/internal/metadata"
	"infat/internal/rt"
	"infat/internal/splitmix"
	"infat/internal/tag"
)

// Scheme selects which of the three metadata schemes (§3.3) the target
// object is registered under.
type Scheme int

// Target schemes.
const (
	// SchemeLocal targets a wrapped-allocator object with local-offset
	// metadata appended to it (§3.3.1).
	SchemeLocal Scheme = iota
	// SchemeSubheap targets a pool-allocated slot with per-block shared
	// metadata (§3.3.2).
	SchemeSubheap
	// SchemeGlobal targets an object registered in the global metadata
	// table (§3.3.3).
	SchemeGlobal
)

// Schemes lists every target scheme in campaign order.
var Schemes = []Scheme{SchemeLocal, SchemeSubheap, SchemeGlobal}

func (s Scheme) String() string {
	switch s {
	case SchemeLocal:
		return "local-offset"
	case SchemeSubheap:
		return "subheap"
	case SchemeGlobal:
		return "global-table"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Fault is the kind of fault injected into a cell.
type Fault int

// Fault kinds. The first six corrupt state the defense must notice; the
// last two force allocator failures the runtime must surface as typed
// traps.
const (
	// FlipPoison flips one of the pointer's two poison bits (§3.2).
	FlipPoison Fault = iota
	// FlipScheme flips one of the two scheme-selector bits.
	FlipScheme
	// FlipMeta flips one of the 12 scheme-metadata/subobject-index bits.
	FlipMeta
	// CorruptMeta flips one bit of the scheme's backing metadata storage
	// (local-offset record, subheap block metadata, or global-table row).
	CorruptMeta
	// CorruptLayout flips one bit of the object's encoded layout table.
	CorruptLayout
	// SwapKey replaces the machine's MAC key, simulating metadata forged
	// without knowledge of the key.
	SwapKey
	// Exhaust drives the scheme's allocator to exhaustion.
	Exhaust
	// OOMAt arms an injected allocator failure at a seed-chosen ordinal.
	OOMAt
	// CorruptGen desynchronizes the temporal generation check: it either
	// bumps the generation store behind a live pointer's back or flips one
	// of the pointer's generation-field bits. Runs under rt.IFPTemporal
	// (the only mode with generation tagging); the generation comparison
	// must trap TrapTemporal — except for global-table pointers, which
	// carry no generation field (documented escape).
	CorruptGen
)

// Faults lists every fault kind in campaign order.
var Faults = []Fault{FlipPoison, FlipScheme, FlipMeta, CorruptMeta, CorruptLayout, SwapKey, Exhaust, OOMAt, CorruptGen}

func (f Fault) String() string {
	switch f {
	case FlipPoison:
		return "flip-poison"
	case FlipScheme:
		return "flip-scheme"
	case FlipMeta:
		return "flip-meta"
	case CorruptMeta:
		return "corrupt-meta"
	case CorruptLayout:
		return "corrupt-layout"
	case SwapKey:
		return "swap-mac-key"
	case Exhaust:
		return "alloc-exhaust"
	case OOMAt:
		return "alloc-oom-at"
	case CorruptGen:
		return "corrupt-gen"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Bucket is the classification of one injected fault.
type Bucket int

// Outcome buckets. Every cell lands in exactly one.
const (
	// Detected: a typed trap of the expected class.
	Detected Bucket = iota
	// Tolerated: the run completed cleanly — a documented escape.
	Tolerated
	// Internal: a recovered panic or an untyped error — a simulator bug.
	Internal
)

func (b Bucket) String() string {
	switch b {
	case Detected:
		return "detected"
	case Tolerated:
		return "tolerated"
	case Internal:
		return "internal"
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// Version is the campaign-behaviour version folded into memoization
// digests (internal/memo). Bump it whenever Run's observable outcome for
// any (scheme, fault, seed) changes — new fault semantics, different
// scenario construction — which invalidates every memoized chaos cell.
const Version = "chaos/v1"

// Outcome records one campaign cell.
type Outcome struct {
	Scheme Scheme
	Fault  Fault
	Seed   uint64
	Bucket Bucket
	// Detail is a deterministic description of the injected fault and why
	// it landed in its bucket.
	Detail string
}

// The target type: a struct with a header, an array of small structs
// (giving the layout walker an array-of-struct level to divide through),
// and a tail — 48 bytes, within every scheme's reach. Shared read-only
// across cells (layout types are immutable after construction).
var (
	chaosElemT = layout.StructOf("chaos_elem",
		layout.F("a", layout.Int),
		layout.F("b", layout.Int))
	chaosNodeT = layout.StructOf("chaos_node",
		layout.F("hdr", layout.Long),
		layout.F("arr", layout.ArrayOf(chaosElemT, 4)),
		layout.F("tail", layout.Long))
)

// subobjPath is the member whose address the subobject-indexed exercise
// access takes; subobjOff is its byte offset (arr[1].a).
const (
	subobjPath = "arr[].a"
	subobjOff  = 16
)

// scenario is one cell's known-good starting state: a fresh runtime with
// a target object of the requested scheme between two decoys.
type scenario struct {
	scheme Scheme
	r      *rt.Runtime
	obj    rt.Obj
	decoys []rt.Obj
	subIdx uint16
}

// must converts a scenario-construction error into a panic: the scenario
// is built from constants, so failure is a harness bug, and Run's recover
// files it in the Internal bucket where bugs belong.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("chaos: scenario construction failed: %v", err))
	}
}

// build constructs the cell scenario for a scheme. The target object is
// seeded with a recognizable pattern and its tag is asserted to carry the
// scheme under test.
func build(s Scheme) *scenario {
	var r *rt.Runtime
	var want tag.Scheme
	switch s {
	case SchemeLocal:
		r = rt.Acquire(rt.Wrapped)
		want = tag.SchemeLocalOffset
	case SchemeSubheap:
		r = rt.Acquire(rt.Subheap)
		want = tag.SchemeSubheap
	case SchemeGlobal:
		r = rt.Acquire(rt.Wrapped)
		r.ForceGlobalTable = true
		want = tag.SchemeGlobalTable
	default:
		panic(fmt.Sprintf("chaos: unknown scheme %d", int(s)))
	}
	sc := &scenario{scheme: s, r: r}
	sc.populate(want)
	return sc
}

// buildTemporal constructs the CorruptGen cell scenario: the same target
// object, but under rt.IFPTemporal so its pointer carries a generation
// tag. Each scheme is steered the way hybrid selection reaches it:
// local-offset via a cold signature, subheap by warming the signature
// past the graduation threshold, global-table via the ForceGlobalTable
// ablation (whose pointers carry no generation field — the documented
// escape this fault's Tolerated bucket pins).
func buildTemporal(s Scheme) *scenario {
	r := rt.Acquire(rt.IFPTemporal)
	var want tag.Scheme
	switch s {
	case SchemeLocal:
		want = tag.SchemeLocalOffset
	case SchemeSubheap:
		// Warm the chaos_node signature past hybrid graduation so the
		// target and decoys land in subheap pool slots (the warm-ups stay
		// live, keeping the block resident).
		for i := 0; i < 5; i++ {
			_, err := r.Malloc(chaosNodeT, 1)
			must(err)
		}
		want = tag.SchemeSubheap
	case SchemeGlobal:
		r.ForceGlobalTable = true
		want = tag.SchemeGlobalTable
	default:
		panic(fmt.Sprintf("chaos: unknown scheme %d", int(s)))
	}
	sc := &scenario{scheme: s, r: r}
	sc.populate(want)
	return sc
}

// populate allocates the decoy/target/decoy triple, asserts the target's
// tag scheme, resolves the subobject index, and seeds guest memory.
func (sc *scenario) populate(want tag.Scheme) {
	r := sc.r

	d1, err := r.Malloc(chaosNodeT, 1)
	must(err)
	sc.obj, err = r.Malloc(chaosNodeT, 1)
	must(err)
	d2, err := r.Malloc(chaosNodeT, 1)
	must(err)
	sc.decoys = []rt.Obj{d1, d2}

	if got := tag.SchemeOf(sc.obj.P); got != want {
		must(fmt.Errorf("target tag scheme = %v, want %v", got, want))
	}
	sc.subIdx, err = r.SubobjIndexOf(chaosNodeT, subobjPath)
	must(err)

	// Seed every word of target and decoys so later reads hit initialized
	// memory whatever bounds the corrupted lookup resolves to.
	for _, o := range []rt.Obj{d1, sc.obj, d2} {
		for off := uint64(0); off < o.Size; off += 8 {
			must(r.Store(r.GEP(o.P, int64(off), o.B), 0xA5A5_0000+off, 8, o.B))
		}
	}
}

// exercise drives the possibly-corrupted pointer the way instrumented
// code would: re-promote (the pointer "was just loaded from memory"),
// sweep the object's first/middle/last bytes, write the first word, then
// take a subobject-indexed pointer through the layout walker and access
// it. The first trap wins.
func (sc *scenario) exercise(p uint64) error {
	size := sc.obj.Size
	q, qb := sc.r.Promote(p)
	for _, off := range []uint64{0, size / 2, size - 1} {
		if _, err := sc.r.Load(sc.r.GEP(q, int64(off), qb), 1, qb); err != nil {
			return err
		}
	}
	if err := sc.r.Store(q, 0x5A5A_5A5A, 8, qb); err != nil {
		return err
	}
	// Subobject access: &obj->arr[1].a then promote-and-load, the §3.4
	// narrowing path.
	sp := sc.r.GEP(p, subobjOff, machine.Cleared)
	sp = sc.r.SetSub(sp, sc.subIdx)
	sq, sb := sc.r.Promote(sp)
	if _, err := sc.r.Load(sq, 4, sb); err != nil {
		return err
	}
	return nil
}

// applied describes one injected state fault.
type applied struct {
	p    uint64 // pointer to exercise (tag faults change it; others keep obj.P)
	desc string
	word int // flipped storage word (CorruptMeta/CorruptLayout), else -1
	bit  int // flipped bit position, else -1
}

// applyFault injects one state fault into the scenario, chosen
// deterministically from rng.
func applyFault(sc *scenario, f Fault, rng *splitmix.Stream) applied {
	a := applied{p: sc.obj.P, word: -1, bit: -1}
	r := sc.r
	switch f {
	case FlipPoison:
		bit := 62 + rng.Intn(2)
		a.p = sc.obj.P ^ uint64(1)<<bit
		a.desc = fmt.Sprintf("pointer poison bit %d flipped", bit)
	case FlipScheme:
		bit := 60 + rng.Intn(2)
		a.p = sc.obj.P ^ uint64(1)<<bit
		a.desc = fmt.Sprintf("pointer scheme-selector bit %d flipped (%v -> %v)",
			bit, tag.SchemeOf(sc.obj.P), tag.SchemeOf(a.p))
	case FlipMeta:
		bit := 48 + rng.Intn(12)
		a.p = sc.obj.P ^ uint64(1)<<bit
		a.desc = fmt.Sprintf("pointer meta bit %d flipped", bit)
	case CorruptMeta:
		addr, words := metaStorage(sc)
		a.word, a.bit = rng.Intn(words), rng.Intn(64)
		flipWord(r, addr+uint64(a.word)*8, a.bit)
		a.desc = fmt.Sprintf("%v metadata word %d bit %d flipped", sc.scheme, a.word, a.bit)
	case CorruptLayout:
		addr, tb, err := r.LayoutOf(chaosNodeT)
		must(err)
		words := len(tb.Encode())
		a.word, a.bit = rng.Intn(words), rng.Intn(64)
		flipWord(r, addr+uint64(a.word)*8, a.bit)
		a.desc = fmt.Sprintf("layout-table word %d bit %d flipped", a.word, a.bit)
	case SwapKey:
		r.M.Key = mac.NewKey(0xC0FFEE ^ rng.Next())
		a.desc = "MAC key swapped"
	case CorruptGen:
		if bits := tag.GenBits(tag.SchemeOf(sc.obj.P)); bits > 0 && rng.Intn(2) == 1 {
			// Flip one pointer generation bit: the pointer now claims a
			// generation the store never issued.
			a.bit = 48 + rng.Intn(bits)
			a.p = sc.obj.P ^ uint64(1)<<a.bit
			a.desc = fmt.Sprintf("pointer generation bit %d flipped", a.bit)
		} else {
			// Bump the store behind the live pointer's back — the state a
			// use-after-free leaves: the chunk's generation moved on while
			// the pointer's stamp did not. (Global-table pointers have no
			// generation bits, so they always take this arm — and tolerate
			// it, by design.)
			g := r.Gens().Bump(sc.obj.Base())
			a.desc = fmt.Sprintf("generation store bumped to %d behind a live pointer", g)
		}
	default:
		panic(fmt.Sprintf("chaos: applyFault on %v", f))
	}
	return a
}

// metaStorage locates the target object's backing metadata record.
func metaStorage(sc *scenario) (addr uint64, words int) {
	base := sc.obj.Base()
	switch sc.scheme {
	case SchemeLocal:
		metaAddr, _ := metadata.LocalPlacement(base, sc.obj.Size)
		return metaAddr, metadata.LocalMetaBytes / 8
	case SchemeSubheap:
		crIdx, _ := tag.SubheapFields(sc.obj.P)
		cr := sc.r.M.CRs[crIdx]
		if !cr.Valid {
			must(fmt.Errorf("target CR %d invalid", crIdx))
		}
		return cr.MetaAddr(base), metadata.SubheapMetaBytes / 8
	case SchemeGlobal:
		idx := tag.GlobalIndex(sc.obj.P)
		return metadata.RowAddr(sc.r.M.GlobalBase, idx), metadata.GlobalRowBytes / 8
	}
	panic("chaos: metaStorage on unknown scheme")
}

// flipWord XORs one bit of a guest-memory word. The address is always a
// mapped metadata/layout location, so failure is a harness bug.
func flipWord(r *rt.Runtime, addr uint64, bit int) {
	v, err := r.M.Mem.Load64(addr)
	must(err)
	must(r.M.Mem.Store64(addr, v^uint64(1)<<bit))
}

// detectionTrap reports whether err is a typed trap of the classes that
// constitute detection for corrupted state: poison, bounds, metadata,
// memory (the corrupted lookup walked off the map), or temporal (the
// generation comparison caught a CorruptGen desync — never produced by
// the spatial faults, whose scenarios run without generation tagging).
func detectionTrap(err error) (machine.TrapKind, bool) {
	for _, k := range []machine.TrapKind{
		machine.TrapPoison, machine.TrapBounds, machine.TrapMetadata,
		machine.TrapMemory, machine.TrapTemporal,
	} {
		if machine.IsTrap(err, k) {
			return k, true
		}
	}
	return 0, false
}

// Run executes one campaign cell. It never panics: escaped panics are
// recovered into the Internal bucket, which the campaign treats as a
// simulator bug.
func Run(s Scheme, f Fault, seed uint64) (o Outcome) {
	o = Outcome{Scheme: s, Fault: f, Seed: seed}
	var sc *scenario
	defer func() {
		if r := recover(); r != nil {
			o.Bucket = Internal
			o.Detail = fmt.Sprintf("panic: %v", r)
		}
		// Release even a corrupted or mid-trap runtime: the pool resets it
		// from scratch before its next use, so injected faults cannot leak
		// into later cells.
		if sc != nil {
			rt.Release(sc.r)
		}
	}()
	rng := splitmix.New(seed<<8 ^ uint64(s)<<4 ^ uint64(f))
	if f == CorruptGen {
		sc = buildTemporal(s)
	} else {
		sc = build(s)
	}

	switch f {
	case Exhaust:
		o.Bucket, o.Detail = runExhaust(sc)
		return o
	case OOMAt:
		o.Bucket, o.Detail = runOOMAt(sc, rng)
		return o
	}

	a := applyFault(sc, f, rng)
	coarseBefore := sc.r.M.C.NarrowCoarse
	err := sc.exercise(a.p)
	coarsened := sc.r.M.C.NarrowCoarse > coarseBefore
	switch kind, det := detectionTrap(err); {
	case err == nil:
		// A clean run after a generation desync is only legitimate for
		// pointers with no generation field; on the tagged schemes it means
		// the temporal check failed to fire — a simulator bug.
		if f == CorruptGen && sc.scheme != SchemeGlobal {
			o.Bucket = Internal
			o.Detail = a.desc + ": generation desync escaped the temporal check"
			return o
		}
		o.Bucket = Tolerated
		o.Detail = a.desc + ": " + toleratedReason(sc, f, a, coarsened)
	case det:
		o.Bucket = Detected
		o.Detail = fmt.Sprintf("%s: %v trap", a.desc, kind)
	default:
		o.Bucket = Internal
		o.Detail = fmt.Sprintf("%s: unclassified error: %v", a.desc, err)
	}
	return o
}

// toleratedReason names the documented-by-design escape a clean run
// corresponds to. Every reason produced here must be enumerated in
// DESIGN.md §10.
func toleratedReason(sc *scenario, f Fault, a applied, coarsened bool) string {
	switch f {
	case FlipPoison:
		return "undefined poison encoding (0b10): promote re-derived Valid from intact metadata (only OOB/Invalid are sticky)"
	case FlipScheme:
		if tag.SchemeOf(a.p) == tag.SchemeLegacy {
			return "selector became legacy: pointer exempt from checking by design (§3.2)"
		}
		return "selector resolved to another scheme whose lookup covered the accesses"
	case FlipMeta:
		if coarsened {
			return "subobject-index change coarsened to object bounds (§3.4 guarantee)"
		}
		return "flip stayed within fields whose retrieved bounds still contain the accesses"
	case CorruptMeta:
		if sc.scheme == SchemeGlobal {
			return "global-table rows carry no MAC (§3.3.3): the flip did not shrink bounds below the accesses"
		}
		return "flipped bit is not covered by the MAC input (reserved/ignored metadata bits)"
	case CorruptLayout:
		if sc.scheme == SchemeGlobal {
			return "global-table pointers cannot narrow (§3.3.3): layout table unused"
		}
		if coarsened {
			return "corrupt entry rejected by the walker: coarsened to object bounds (§3.4 guarantee)"
		}
		return "flipped word outside the entries this access walks, or widened bounds still containing the accesses"
	case SwapKey:
		if sc.scheme == SchemeGlobal {
			return "global-table rows carry no MAC (§3.3.3): key swap unobservable for this scheme"
		}
		return "MAC did not cover the exercised lookup"
	case CorruptGen:
		return "global-table pointers carry no generation field (§3.3.3: all 12 tag bits name the row): temporal checking does not apply"
	}
	return "run completed cleanly"
}

// exhaustStep returns the per-allocation size used to drive each
// scheme's allocator to exhaustion quickly: the wrapped free list and
// the subheap buddy region are 512 MiB, the global table has 4096 rows.
func exhaustStep(s Scheme) uint64 {
	switch s {
	case SchemeLocal:
		return 16 << 20 // free-list arena exhaustion in ~32 allocations
	case SchemeSubheap:
		return 1 << 20 // buddy-region exhaustion through max-size pool slots
	default:
		return 16 // row exhaustion: 4096-row table fills first
	}
}

// runExhaust drives the scheme's allocator to exhaustion and checks the
// failure is a typed allocator trap — and that the runtime survives it.
func runExhaust(sc *scenario) (Bucket, string) {
	step := exhaustStep(sc.scheme)
	var err error
	for i := 0; i < 10_000; i++ {
		if _, err = sc.r.MallocBytes(step); err != nil {
			break
		}
	}
	if err == nil {
		return Internal, "allocator never reported exhaustion"
	}
	if !machine.IsTrap(err, machine.TrapAlloc) {
		return Internal, fmt.Sprintf("exhaustion surfaced untyped: %v", err)
	}
	// The runtime must remain consistent: the pre-exhaustion target is
	// still fully accessible.
	if err := sc.exercise(sc.obj.P); err != nil {
		return Internal, fmt.Sprintf("target unusable after exhaustion: %v", err)
	}
	return Detected, fmt.Sprintf("allocator exhaustion -> typed alloc trap (%v)", causeOf(err))
}

// runOOMAt arms a one-shot injected allocator fault at a seed-chosen
// ordinal and checks it fires exactly there, typed, with no collateral.
func runOOMAt(sc *scenario, rng *splitmix.Stream) (Bucket, string) {
	n := 1 + rng.Intn(6)
	sc.r.InjectAllocFault(n)
	var live []rt.Obj
	for i := 1; i <= n+2; i++ {
		o, err := sc.r.MallocBytes(64)
		if i == n {
			if !machine.IsTrap(err, machine.TrapAlloc) || !errors.Is(err, rt.ErrInjectedAllocFault) {
				return Internal, fmt.Sprintf("injected fault at ordinal %d surfaced as %v", n, err)
			}
			continue
		}
		if err != nil {
			return Internal, fmt.Sprintf("allocation %d failed besides the armed ordinal %d: %v", i, n, err)
		}
		live = append(live, o)
	}
	for _, o := range live {
		if err := sc.r.Free(o); err != nil {
			return Internal, fmt.Sprintf("free after injected fault: %v", err)
		}
	}
	if err := sc.exercise(sc.obj.P); err != nil {
		return Internal, fmt.Sprintf("target unusable after injected fault: %v", err)
	}
	return Detected, fmt.Sprintf("injected failure at allocation %d -> typed alloc trap", n)
}

// causeOf names a trap's underlying cause for report details.
func causeOf(err error) string {
	var t *machine.Trap
	if errors.As(err, &t) && t.Cause != nil {
		return t.Cause.Error()
	}
	return err.Error()
}

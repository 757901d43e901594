// Package infat is the public API of the In-Fat Pointer reproduction: a
// hardware-assisted tagged-pointer spatial memory safety defense with
// subobject-granularity protection (Xu, Huang & Lie, ASPLOS 2021),
// implemented as a from-scratch architectural simulation.
//
// The three layers a user typically touches:
//
//   - System — a simulated machine plus the In-Fat Pointer runtime. Guest
//     objects are allocated and registered through it, pointers are tagged
//     64-bit values, and every access runs the paper's checking pipeline
//     (poison bits, implicit bounds checks, promote-based bounds
//     retrieval with layout-table narrowing).
//
//   - RunC — compile and execute a MiniC (C subset) program under
//     instrumentation; spatial errors surface as traps. This is the path
//     the Juliet-style functional evaluation uses.
//
//   - The experiment drivers re-exported from internal packages:
//     Experiments (Table 4, Figures 10-12), JulietSuite (§5.1),
//     HardwareCost (Figure 13), and RelatedWork (§2/Table 1).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package infat

import (
	"infat/internal/baseline"
	"infat/internal/exp"
	"infat/internal/hwcost"
	"infat/internal/juliet"
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// Mode selects the run configuration (§5.2): Baseline is uninstrumented;
// Subheap and Wrapped select the heap allocator used with full
// instrumentation.
type Mode = rt.Mode

// Run modes.
const (
	// Baseline runs without any In-Fat Pointer instrumentation.
	Baseline = rt.Baseline
	// Subheap instruments with the pool-over-buddy subheap allocator.
	Subheap = rt.Subheap
	// Wrapped instruments with the wrapped glibc-style allocator.
	Wrapped = rt.Wrapped
	// ModeIFPTemporal instruments with Hybrid's dynamic allocator
	// selection plus xTag-style generation tagging: the 12 shared tag
	// bits carry an allocation generation instead of a subobject index,
	// so use-after-free and double free trap (IsTemporalTrap) while
	// spatial protection coarsens to object granularity. DESIGN.md §14.
	ModeIFPTemporal = rt.IFPTemporal
)

// System is a simulated machine with the In-Fat Pointer runtime attached.
// It embeds the runtime, so allocation (Malloc, AllocLocal,
// RegisterGlobal), accesses (Load, Store, LoadPtr, StorePtr), pointer
// arithmetic (GEP, SetSub), and promotion (Promote) are all available
// directly; see infat/internal/rt for the full method set.
type System struct {
	*rt.Runtime
}

// NewSystem creates a fresh guest environment in the given mode.
func NewSystem(mode Mode) *System { return &System{rt.New(mode)} }

// Counters returns the machine's dynamic event counters (instructions,
// cycles, promote statistics, check counts — the quantities Table 4 and
// Figure 11 report).
func (s *System) Counters() machine.Counters { return s.M.C }

// Obj is a registered guest object handle.
type Obj = rt.Obj

// BoundsReg is a bounds register (the 96-bit half of an IFPR).
type BoundsReg = machine.BoundsReg

// Type constructors for describing guest objects (layout tables are
// generated per type, §3.4).
var (
	// Char is the 1-byte scalar type.
	Char = layout.Char
	// Int is the 4-byte scalar type.
	Int = layout.Int
	// Long is the 8-byte scalar type.
	Long = layout.Long
)

// Type is a guest object type.
type Type = layout.Type

// StructOf builds a struct type with C layout rules.
func StructOf(name string, fields ...layout.Field) *Type { return layout.StructOf(name, fields...) }

// Field builds a struct member for StructOf.
func Field(name string, t *Type) layout.Field { return layout.F(name, t) }

// ArrayOf builds a fixed-size array type.
func ArrayOf(elem *Type, n uint64) *Type { return layout.ArrayOf(elem, n) }

// PointerTo builds a 64-bit pointer type.
func PointerTo(t *Type) *Type { return layout.PointerTo(t) }

// IsSpatialTrap reports whether err is an In-Fat Pointer detection — a
// poisoned-pointer dereference or a failed bounds check.
func IsSpatialTrap(err error) bool {
	return machine.IsTrap(err, machine.TrapPoison) || machine.IsTrap(err, machine.TrapBounds)
}

// IsResourceTrap reports whether err is exhaustion of an execution
// budget (RunCBudget's fuel limit) or an allocator failure (arena/buddy
// exhaustion, global-table full, injected fault) — a resource trap,
// distinct from the spatial detections IsSpatialTrap classifies.
func IsResourceTrap(err error) bool {
	return machine.IsTrap(err, machine.TrapFuel) || machine.IsTrap(err, machine.TrapAlloc)
}

// IsInternalTrap reports whether err is a recovered simulator panic — a
// bug in the simulator itself, never a guest-program condition. RunC and
// RunCBudget convert escaped panics into this trap kind so no guest
// program can crash the host process.
func IsInternalTrap(err error) bool {
	return machine.IsTrap(err, machine.TrapInternal)
}

// IsTemporalTrap reports whether err is a temporal-safety detection —
// a use-after-free (dereference through a stale-generation pointer) or a
// double free (free through a pointer whose generation is behind the
// store). Only ModeIFPTemporal produces these; in spatial modes temporal
// bugs surface, at best, as spatial traps when they happen to corrupt
// metadata.
func IsTemporalTrap(err error) bool {
	return machine.IsTrap(err, machine.TrapTemporal)
}

// RunC compiles and executes a MiniC source program in the given mode,
// returning the values it print()ed and main's exit code. Spatial memory
// errors surface as *minic.RunError wrapping a machine trap (test with
// IsSpatialTrap via errors.As / Unwrap).
func RunC(src string, mode Mode) (out []int64, exit int64, err error) {
	defer machine.RecoverInternal(&err)
	return minic.Execute(src, mode)
}

// RunCBudget is RunC with an execution budget: when fuel is non-zero the
// run traps with a typed resource trap (IsResourceTrap) once it has
// consumed that many simulated cycles, so untrusted or infinite-looping
// programs terminate deterministically. Fuel 0 means unlimited. This is
// the primitive ifp-serve builds its per-request hardening on.
func RunCBudget(src string, mode Mode, fuel uint64) (out []int64, exit int64, err error) {
	defer machine.RecoverInternal(&err)
	out, exit, _, err = minic.ExecuteBudget(src, mode, fuel)
	return out, exit, err
}

// Experiments runs the §5.2 application evaluation at the given scale and
// returns the rendered Table 4 and Figures 10-12. Scale 1 is the standard
// run (tens of seconds); the memory experiment runs at scale*4 (§5.2.3
// needs multi-page footprints). The (workload × configuration) grid fans
// out over parallel worker goroutines: parallel <= 0 selects GOMAXPROCS,
// 1 runs fully serially. Every cell of the grid builds its own isolated
// runtime and results are collected in deterministic order, so the report
// is byte-identical at any worker count.
func Experiments(scale, parallel int) (string, error) {
	return exp.RunReport(exp.NewReportPlan(workloads.All, scale, exp.MemScale), parallel)
}

// ChaosCampaign runs the fault-injection campaign (DESIGN.md §10) at the
// given scale: every (metadata scheme × fault kind) cell is run with
// 8*scale seeds, and each injected fault is classified as detected (typed
// trap), tolerated (documented-by-design escape), or internal (recovered
// panic or untyped error — a simulator bug). It returns the rendered
// report and the internal-outcome count, which a healthy simulator keeps
// at zero. The grid fans out over parallel worker goroutines (<= 0
// selects GOMAXPROCS, 1 runs fully serially); every cell builds its own
// isolated runtime and results collect in deterministic order, so the
// report is byte-identical at any worker count.
func ChaosCampaign(scale, parallel int) (report string, internal int) {
	return exp.ChaosReport(scale, parallel)
}

// JulietSuite runs the §5.1 functional evaluation in the given mode and
// returns its summary. Cases fan out over parallel worker goroutines
// (<= 0 selects GOMAXPROCS, 1 runs fully serially); each case runs in its
// own isolated runtime and the summary aggregates in case order, so the
// result is identical at any worker count.
func JulietSuite(mode Mode, parallel int) juliet.Summary {
	return juliet.Run(juliet.Generate(), mode, parallel)
}

// HardwareCost renders the Figure 13 area decomposition and the §5.3
// ablation table.
func HardwareCost() string {
	return hwcost.Fig13(hwcost.Default) + "\n" + hwcost.Ablations()
}

// RelatedWork renders the §2/Table-1 comparison of defense mechanisms on
// a shared pointer-chase kernel.
func RelatedWork(nNodes int) (string, error) { return baseline.Compare(nNodes) }

// Workloads lists the 18 benchmark programs of §5.2.
func Workloads() []workloads.Workload { return workloads.All }

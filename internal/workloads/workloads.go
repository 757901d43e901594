// Package workloads re-implements the paper's §5.2 benchmark programs —
// the full Olden suite (bh, bisort, em3d, health, mst, perimeter, power,
// treeadd, tsp, voronoi), four PtrDist programs (anagram, ft, ks, yacr2),
// and the four "selected programs" (wolfcrypt-dh, sjeng, coremark, bzip2)
// — as kernels operating on guest memory through the instrumented runtime
// API.
//
// Every workload runs identically under every rt.Mode and returns a
// checksum; baseline and instrumented runs must agree (instrumentation
// must not change program semantics), which the test suite asserts. The
// overhead experiments (Table 4, Figures 10-12) compare machine counters
// between modes.
//
// Each kernel reproduces its original's pointer behaviour: allocation mix
// (object counts and sizes, Table 4's left half), promote sources (child
// pointers loaded from memory, NULL-heavy trees, legacy libc pointers),
// and cache footprint, because those are the quantities the paper's
// results are made of.
//
// # Concurrency contract
//
// The package-level layout.Type values describing each kernel's node
// types (bhBodyT, treeaddNodeT, ...) and the member handles resolved from
// them (bhBodyMass, treeaddNodeLeft, ...) are constructed at package init
// and are READ-ONLY afterwards — layout.Type is immutable after
// construction, and the parallel evaluation harness (internal/exp,
// internal/pool) shares them lock-free across worker goroutines on that
// basis. Workload code must never mutate them; any per-run state belongs
// on the env (RNG, checksum), which is created fresh for every run, as is
// the rt.Runtime each cell executes against. See DESIGN.md "Concurrency
// model".
package workloads

import (
	"fmt"

	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// Version is the kernel-behaviour version folded into memoization
// digests (internal/memo). Bump it whenever any kernel's observable
// behaviour changes — allocation mix, checksum, counter profile — which
// invalidates every memoized cell computed from the old kernels.
const Version = "workloads/v1"

// Workload is one registered benchmark.
type Workload struct {
	Name  string
	Suite string // "olden", "ptrdist", "other"
	// Run executes the kernel at the given scale (1 = the standard
	// experiment size; tests use smaller) and returns a checksum that
	// must be mode-independent.
	Run func(r *rt.Runtime, scale int) (uint64, error)
}

// All lists every workload in the paper's Table-4 order.
var All = []Workload{
	{"bh", "olden", runBH},
	{"bisort", "olden", runBisort},
	{"em3d", "olden", runEM3D},
	{"health", "olden", runHealth},
	{"mst", "olden", runMST},
	{"perimeter", "olden", runPerimeter},
	{"power", "olden", runPower},
	{"treeadd", "olden", runTreeAdd},
	{"tsp", "olden", runTSP},
	{"voronoi", "olden", runVoronoi},
	{"anagram", "ptrdist", runAnagram},
	{"ft", "ptrdist", runFT},
	{"ks", "ptrdist", runKS},
	{"yacr2", "ptrdist", runYacr2},
	{"wolfcrypt-dh", "other", runWolfcryptDH},
	{"sjeng", "other", runSjeng},
	{"coremark", "other", runCoreMark},
	{"bzip2", "other", runBzip2},
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// env wraps a Runtime with sticky-error ergonomics and a deterministic RNG
// so kernels read like the C originals instead of error-plumbing.
type env struct {
	r   *rt.Runtime
	err error
	rng uint64
	sum uint64 // running checksum
}

// field is a member handle: one member of a kernel's node type, resolved
// once at package init to what the compiler's GEP instrumentation embeds
// at each access site — its offset from the start of the outermost
// element, its size, and its layout-table subobject index.
type field struct {
	off  int64
	idx  uint16
	size int
}

// resolvedField records one mustField resolution, so tests can check
// every handle against resolvePath and a live runtime's SubobjIndexOf.
type resolvedField struct {
	t    *layout.Type
	path string
	f    field
}

// resolvedFields lists every handle in declaration order.
var resolvedFields []resolvedField

// mustField resolves a member path of t ("a.b[].c", the layout-table
// path syntax) into a handle. Paths are literals next to their type, so
// one that does not resolve is a typo: it panics at package init rather
// than failing a run.
func mustField(t *layout.Type, path string) field {
	ft, off := resolvePath(t, path)
	if ft == nil {
		panic(fmt.Sprintf("workloads: no field %q in %s", path, t.Name))
	}
	tb, err := layout.Build(t)
	if err != nil {
		panic(fmt.Sprintf("workloads: layout table of %s: %v", t.Name, err))
	}
	idx, ok := tb.IndexOf(path)
	if !ok {
		panic(fmt.Sprintf("workloads: no subobject %q in %s's layout table", path, t.Name))
	}
	f := field{off: off, idx: idx, size: int(ft.Size())}
	resolvedFields = append(resolvedFields, resolvedField{t, path, f})
	return f
}

func newEnv(r *rt.Runtime) *env {
	return &env{r: r, rng: 0x9E3779B97F4A7C15}
}

func (e *env) fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// rand is xorshift64*: deterministic across modes and runs.
func (e *env) rand() uint64 {
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (e *env) randn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return e.rand() % n
}

func (e *env) mix(v uint64) { e.sum = (e.sum*1099511628211 ^ v) }

// tick models plain computation instructions.
func (e *env) tick(n uint64) { e.r.M.Tick(n) }

// resolvePath walks a dotted member path ("a.b[].c") returning the final
// member's type and its offset from the start of the outermost element.
// "[]" segments descend into array elements at offset 0.
func resolvePath(t *layout.Type, path string) (*layout.Type, int64) {
	cur := t
	var off int64
	start := 0
	for i := 0; i <= len(path); i++ {
		if i < len(path) && path[i] != '.' {
			continue
		}
		seg := path[start:i]
		start = i + 1
		arr := false
		if n := len(seg); n >= 2 && seg[n-2] == '[' && seg[n-1] == ']' {
			seg, arr = seg[:n-2], true
		}
		if seg != "" {
			if cur.Kind != layout.KindStruct {
				return nil, 0
			}
			f, ok := cur.FieldByName(seg)
			if !ok {
				return nil, 0
			}
			off += int64(f.Offset)
			cur = f.Type
		}
		if arr {
			if cur.Kind != layout.KindArray {
				return nil, 0
			}
			cur = cur.Elem
		}
	}
	return cur, off
}

// --- access shorthands (sticky error) ---

func (e *env) ld(p rt.Ptr, size int, b machine.BoundsReg) uint64 {
	if e.err != nil {
		return 0
	}
	v, err := e.r.Load(p, size, b)
	e.fail(err)
	return v
}

func (e *env) st(p rt.Ptr, v uint64, size int, b machine.BoundsReg) {
	if e.err != nil {
		return
	}
	e.fail(e.r.Store(p, v, size, b))
}

func (e *env) ldp(p rt.Ptr, b machine.BoundsReg) (rt.Ptr, machine.BoundsReg) {
	if e.err != nil {
		return 0, machine.Cleared
	}
	q, qb, err := e.r.LoadPtr(p, b)
	e.fail(err)
	return q, qb
}

func (e *env) stp(p rt.Ptr, b machine.BoundsReg, v rt.Ptr, vb machine.BoundsReg) {
	if e.err != nil {
		return
	}
	e.fail(e.r.StorePtr(p, b, v, vb))
}

func (e *env) gep(p rt.Ptr, delta int64, b machine.BoundsReg) rt.Ptr {
	if e.err != nil {
		return 0
	}
	return e.r.GEP(p, delta, b)
}

func (e *env) sub(p rt.Ptr, idx uint16) rt.Ptr {
	if e.err != nil {
		return 0
	}
	return e.r.SetSub(p, idx)
}

// fieldPtr derives a pointer to a member, emitting GEP + subobject-index
// update exactly as the compiler instruments &p->member.
func (e *env) fieldPtr(p rt.Ptr, b machine.BoundsReg, f field) rt.Ptr {
	return e.sub(e.gep(p, f.off, b), f.idx)
}

// ldf loads a member's scalar value (address computation + load; no
// subobject-index update is needed for a transient access).
func (e *env) ldf(p rt.Ptr, b machine.BoundsReg, f field) uint64 {
	return e.ld(e.gep(p, f.off, b), f.size, b)
}

// stf stores a member's scalar value.
func (e *env) stf(p rt.Ptr, b machine.BoundsReg, f field, v uint64) {
	e.st(e.gep(p, f.off, b), v, f.size, b)
}

// ldpf loads a pointer member and promotes it.
func (e *env) ldpf(p rt.Ptr, b machine.BoundsReg, f field) (rt.Ptr, machine.BoundsReg) {
	return e.ldp(e.gep(p, f.off, b), b)
}

// stpf stores a pointer member (demote + store).
func (e *env) stpf(p rt.Ptr, b machine.BoundsReg, f field, v rt.Ptr, vb machine.BoundsReg) {
	e.stp(e.gep(p, f.off, b), b, v, vb)
}

// --- allocation shorthands ---

func (e *env) malloc(t *layout.Type, n uint64) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.Malloc(t, n)
	e.fail(err)
	return o
}

func (e *env) mallocBytes(n uint64) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.MallocBytes(n)
	e.fail(err)
	return o
}

func (e *env) mallocLegacy(n uint64) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.MallocLegacy(n)
	e.fail(err)
	return o
}

func (e *env) free(o rt.Obj) {
	if e.err != nil {
		return
	}
	e.fail(e.r.Free(o))
}

func (e *env) local(t *layout.Type) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.AllocLocal(t)
	e.fail(err)
	return o
}

func (e *env) localBytes(n uint64) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.AllocLocalBytes(n)
	e.fail(err)
	return o
}

func (e *env) unlocal(o rt.Obj) {
	if e.err != nil {
		return
	}
	e.fail(e.r.DeallocLocal(o))
}

func (e *env) globalBytes(n uint64) rt.Obj {
	if e.err != nil {
		return rt.Obj{}
	}
	o, err := e.r.RegisterGlobalBytes(n)
	e.fail(err)
	return o
}

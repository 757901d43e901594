package workloads

import (
	"testing"

	"infat/internal/layout"
	"infat/internal/rt"
)

// TestChecksumsModeIndependent is the central soundness check of the whole
// evaluation methodology: every workload must compute the same result in
// baseline, subheap, wrapped, and both no-promote variants — the
// instrumentation may only add checks, never change semantics.
func TestChecksumsModeIndependent(t *testing.T) {
	for _, w := range All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base := runOnce(t, w, rt.Baseline, false)
			for _, cfg := range []struct {
				mode      rt.Mode
				noPromote bool
				name      string
			}{
				{rt.Subheap, false, "subheap"},
				{rt.Wrapped, false, "wrapped"},
				{rt.Hybrid, false, "hybrid"},
				{rt.Subheap, true, "subheap-nopromote"},
				{rt.Wrapped, true, "wrapped-nopromote"},
			} {
				if got := runOnce(t, w, cfg.mode, cfg.noPromote); got != base {
					t.Errorf("%s checksum %#x != baseline %#x", cfg.name, got, base)
				}
			}
		})
	}
}

func runOnce(t *testing.T, w Workload, mode rt.Mode, noPromote bool) uint64 {
	t.Helper()
	r := rt.New(mode)
	r.M.NoPromote = noPromote
	sum, err := w.Run(r, 1)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, mode, err)
	}
	return sum
}

func TestInstrumentationIsActive(t *testing.T) {
	// Instrumented runs must actually execute promotes and checks — a
	// workload that silently bypasses the API would fake a low overhead.
	for _, w := range All {
		r := rt.New(rt.Subheap)
		if _, err := w.Run(r, 1); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c := r.M.C
		if c.Promote == 0 {
			t.Errorf("%s: no promotes executed", w.Name)
		}
		if c.Checks == 0 {
			t.Errorf("%s: no bounds checks executed", w.Name)
		}
		if c.CheckFails != 0 {
			t.Errorf("%s: %d spurious check failures", w.Name, c.CheckFails)
		}
		if c.PromoteFailed != 0 {
			t.Errorf("%s: %d promotes found invalid metadata", w.Name, c.PromoteFailed)
		}
	}
}

func TestBaselineEmitsNoIFP(t *testing.T) {
	for _, w := range All {
		r := rt.New(rt.Baseline)
		if _, err := w.Run(r, 1); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if n := r.M.C.IfpTotal(); n != 0 {
			t.Errorf("%s: baseline executed %d IFP instructions", w.Name, n)
		}
	}
}

func TestWorkloadSignatures(t *testing.T) {
	// Spot-check the per-program pointer profiles Table 4 reports.
	run := func(name string) *rt.Runtime {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		r := rt.New(rt.Subheap)
		if _, err := w.Run(r, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}

	// treeadd: ~50% of promotes bypass on NULL (leaf children).
	r := run("treeadd")
	c := r.M.C
	nullShare := float64(c.PromoteNull) / float64(c.Promote)
	if nullShare < 0.35 || nullShare > 0.65 {
		t.Errorf("treeadd NULL promote share = %.2f, want ~0.5", nullShare)
	}

	// anagram: legacy pointers dominate the bypasses (libc ctype).
	r = run("anagram")
	c = r.M.C
	if c.PromoteLegacy == 0 {
		t.Error("anagram: no legacy promotes")
	}
	if float64(c.PromoteValid)/float64(c.Promote) > 0.75 {
		t.Errorf("anagram: valid share %.2f too high — legacy path missing",
			float64(c.PromoteValid)/float64(c.Promote))
	}

	// ft: essentially all promotes valid.
	r = run("ft")
	c = r.M.C
	if v := float64(c.PromoteValid) / float64(c.Promote); v < 0.9 {
		t.Errorf("ft: valid promote share = %.2f, want ~1.0", v)
	}

	// coremark: narrowing attempts all coarsen (no layout table), and
	// there is exactly one heap allocation.
	r = run("coremark")
	c = r.M.C
	if c.NarrowAttempts == 0 || c.NarrowSuccess != 0 {
		t.Errorf("coremark: narrow attempts=%d success=%d, want attempts>0 success=0",
			c.NarrowAttempts, c.NarrowSuccess)
	}
	if r.Stats.HeapObjects != 1 {
		t.Errorf("coremark heap objects = %d, want 1", r.Stats.HeapObjects)
	}

	// bh: local objects dominate object instrumentation.
	r = run("bh")
	if r.Stats.LocalObjects <= r.Stats.HeapObjects {
		t.Errorf("bh: locals %d <= heap %d, want local-dominated",
			r.Stats.LocalObjects, r.Stats.HeapObjects)
	}
	if r.Stats.LocalWithLT != r.Stats.LocalObjects {
		t.Errorf("bh: typed vector locals should all carry layout tables: %d of %d",
			r.Stats.LocalWithLT, r.Stats.LocalObjects)
	}

	// sjeng: exactly one instrumented global, served by the global table.
	r = run("sjeng")
	if r.Stats.GlobalObjects != 1 {
		t.Errorf("sjeng globals = %d, want 1", r.Stats.GlobalObjects)
	}

	// perimeter: bounds spill/reload traffic present (recursion).
	r = run("perimeter")
	if r.M.C.LdBnd == 0 || r.M.C.StBnd == 0 {
		t.Error("perimeter: no bounds spill traffic")
	}

	// em3d under subheap uses many distinct pools (varied array sizes).
	r = run("em3d")
	if r.Stats.HeapObjects < 300 {
		t.Errorf("em3d heap objects = %d", r.Stats.HeapObjects)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("treeadd"); !ok {
		t.Error("treeadd missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ghost workload found")
	}
	if len(All) != 18 {
		t.Errorf("suite has %d workloads, want 18", len(All))
	}
}

func TestResolvePath(t *testing.T) {
	nested := layout.StructOf("N", layout.F("a", layout.Int), layout.F("b", layout.Int))
	s := layout.StructOf("S",
		layout.F("x", layout.Long),
		layout.F("arr", layout.ArrayOf(nested, 3)),
		layout.F("tail", layout.Int))
	cases := []struct {
		path string
		off  int64
		size uint64
	}{
		{"x", 0, 8},
		{"arr", 8, 24},
		{"arr[].a", 8, 4},
		{"arr[].b", 12, 4},
		{"tail", 32, 4},
	}
	for _, tc := range cases {
		ft, off := resolvePath(s, tc.path)
		if ft == nil || off != tc.off || ft.Size() != tc.size {
			t.Errorf("resolvePath(%q) = (%v, %d)", tc.path, ft, off)
		}
	}
	if ft, _ := resolvePath(s, "ghost"); ft != nil {
		t.Error("ghost path resolved")
	}
	if ft, _ := resolvePath(s, "x[].y"); ft != nil {
		t.Error("array descent through scalar resolved")
	}
}

// TestFieldHandlesMatchResolvePath: every member handle a kernel uses
// carries the offset and size resolvePath computes for its (type, path).
func TestFieldHandlesMatchResolvePath(t *testing.T) {
	if len(resolvedFields) == 0 {
		t.Fatal("no member handles resolved at init")
	}
	for _, rf := range resolvedFields {
		ft, off := resolvePath(rf.t, rf.path)
		if ft == nil {
			t.Errorf("%s.%s: resolvePath finds no member", rf.t.Name, rf.path)
			continue
		}
		if rf.f.off != off || rf.f.size != int(ft.Size()) {
			t.Errorf("%s.%s: handle (off %d, size %d), resolvePath (off %d, size %d)",
				rf.t.Name, rf.path, rf.f.off, rf.f.size, off, ft.Size())
		}
	}
}

// TestFieldHandlesMatchRuntimeIndex: every handle's subobject index is
// the one a live instrumented runtime resolves for the same path from
// the layout table it interns — what the kernels looked up per run before
// the handles existed.
func TestFieldHandlesMatchRuntimeIndex(t *testing.T) {
	for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped} {
		r := rt.New(mode)
		for _, rf := range resolvedFields {
			idx, err := r.SubobjIndexOf(rf.t, rf.path)
			if err != nil {
				t.Errorf("%v: %s.%s: %v", mode, rf.t.Name, rf.path, err)
				continue
			}
			if idx != rf.f.idx {
				t.Errorf("%v: %s.%s: handle index %d, runtime %d", mode, rf.t.Name, rf.path, rf.f.idx, idx)
			}
		}
	}
}

// TestMustFieldPanicsOnTypo: a path that does not resolve is a literal's
// typo and fails at package init, not in some later run.
func TestMustFieldPanicsOnTypo(t *testing.T) {
	for _, path := range []string{"ghost", "next[].x", "hosts.time"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mustField(patient, %q) did not panic", path)
				}
			}()
			mustField(healthPatientT, path)
		}()
	}
}

func TestEnvRNGDeterministic(t *testing.T) {
	e1 := newEnv(rt.New(rt.Baseline))
	e2 := newEnv(rt.New(rt.Subheap))
	for i := 0; i < 100; i++ {
		if e1.rand() != e2.rand() {
			t.Fatal("RNG mode-dependent")
		}
	}
	if e1.randn(0) != 0 {
		t.Error("randn(0)")
	}
}

// TestAllSignatures pins each workload's Table-4 fingerprint: the valid-
// promote share band and the object-instrumentation shape the paper
// reports per program.
func TestAllSignatures(t *testing.T) {
	type band struct {
		validLo, validHi float64 // valid-promote share
		heapMin          uint64  // minimum heap objects
		wantLT           bool    // some heap objects carry layout tables
		wantNarrow       bool    // successful narrowing expected
		wantCoarse       bool    // coarsened narrowing expected
		wantLegacy       bool    // legacy-pointer promotes expected
	}
	bands := map[string]band{
		"bh":           {0.6, 1.0, 100, true, false, false, false},
		"bisort":       {0.4, 0.65, 500, true, false, false, false},
		"em3d":         {0.9, 1.0, 700, true, false, false, false},
		"health":       {0.85, 1.0, 2000, true, true, false, false},
		"mst":          {0.5, 0.85, 400, true, false, false, true},
		"perimeter":    {0.9, 1.0, 3000, true, false, false, false},
		"power":        {0.9, 1.0, 70, true, false, false, false},
		"treeadd":      {0.35, 0.65, 2000, true, false, false, false},
		"tsp":          {0.9, 1.0, 500, true, false, false, false},
		"voronoi":      {0.3, 0.6, 100, true, false, false, true},
		"anagram":      {0.3, 0.65, 150, false, false, false, true},
		"ft":           {0.85, 1.0, 2500, true, false, false, false},
		"ks":           {0.6, 0.9, 350, true, false, false, false},
		"yacr2":        {0.9, 1.0, 5, false, false, false, false},
		"wolfcrypt-dh": {0.9, 1.0, 150, false, false, false, false},
		"sjeng":        {0.15, 0.8, 1, false, false, false, true},
		"coremark":     {0.9, 1.0, 1, false, false, true, false},
		"bzip2":        {0.6, 0.95, 4, false, false, true, true},
	}
	for _, w := range All {
		b, ok := bands[w.Name]
		if !ok {
			t.Errorf("no signature band for %s", w.Name)
			continue
		}
		r := rt.New(rt.Subheap)
		if _, err := w.Run(r, 1); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c := r.M.C
		valid := float64(c.PromoteValid) / float64(c.Promote)
		if valid < b.validLo || valid > b.validHi {
			t.Errorf("%s: valid-promote share %.2f outside [%.2f, %.2f]",
				w.Name, valid, b.validLo, b.validHi)
		}
		if r.Stats.HeapObjects < b.heapMin {
			t.Errorf("%s: heap objects %d < %d", w.Name, r.Stats.HeapObjects, b.heapMin)
		}
		if b.wantLT && r.Stats.HeapWithLT == 0 {
			t.Errorf("%s: no heap objects with layout tables", w.Name)
		}
		if !b.wantLT && r.Stats.HeapWithLT > r.Stats.HeapObjects/2 {
			t.Errorf("%s: unexpectedly many layout tables (%d of %d)",
				w.Name, r.Stats.HeapWithLT, r.Stats.HeapObjects)
		}
		if b.wantNarrow && c.NarrowSuccess == 0 {
			t.Errorf("%s: no successful narrowing", w.Name)
		}
		if b.wantCoarse && c.NarrowCoarse == 0 {
			t.Errorf("%s: no coarsened narrowing", w.Name)
		}
		if b.wantLegacy && c.PromoteLegacy == 0 {
			t.Errorf("%s: no legacy promotes", w.Name)
		}
	}
}

// TestScaleParameter verifies that scale grows the work (the experiment
// drivers rely on it for the memory runs).
func TestScaleParameter(t *testing.T) {
	for _, name := range []string{"treeadd", "health", "coremark"} {
		w, _ := ByName(name)
		r1 := rt.New(rt.Baseline)
		if _, err := w.Run(r1, 1); err != nil {
			t.Fatal(err)
		}
		r2 := rt.New(rt.Baseline)
		if _, err := w.Run(r2, 2); err != nil {
			t.Fatal(err)
		}
		if r2.M.C.Instrs <= r1.M.C.Instrs {
			t.Errorf("%s: scale 2 instrs %d <= scale 1 %d", name, r2.M.C.Instrs, r1.M.C.Instrs)
		}
	}
}

package exp

import (
	"fmt"
	"strings"
	"testing"

	"infat/internal/rt"
	"infat/internal/workloads"
)

// small runs a cheap subset so the tests stay fast.
var small = []string{"treeadd", "coremark", "voronoi"}

func subset(t *testing.T) []Result {
	t.Helper()
	var out []Result
	for _, name := range small {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		r, err := Run(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestRunCollectsAllConfigs(t *testing.T) {
	res := subset(t)[0]
	if res.Name != "treeadd" {
		t.Errorf("name = %s", res.Name)
	}
	if res.Baseline.Counters.Instrs == 0 || res.Subheap.Counters.Instrs == 0 ||
		res.Wrapped.Counters.Instrs == 0 || res.SubheapNP.Counters.Instrs == 0 ||
		res.WrappedNP.Counters.Instrs == 0 {
		t.Error("missing configuration data")
	}
	if res.Baseline.Counters.IfpTotal() != 0 {
		t.Error("baseline ran IFP instructions")
	}
	// No-promote variants execute the same promotes but never fetch
	// metadata.
	if res.SubheapNP.Counters.MetaFetches != 0 {
		t.Error("no-promote fetched metadata")
	}
	if res.SubheapNP.Counters.Promote != res.Subheap.Counters.Promote {
		t.Error("no-promote changed promote count")
	}
}

func TestRenderersContainRows(t *testing.T) {
	res := subset(t)
	for name, out := range map[string]string{
		"table4": Table4(res),
		"fig10":  Fig10(res),
		"fig11":  Fig11(res),
	} {
		for _, w := range small {
			if !strings.Contains(out, w) {
				t.Errorf("%s missing row for %s", name, w)
			}
		}
		if !strings.Contains(out, "geo-mean") && name != "fig11" {
			t.Errorf("%s missing geo-mean", name)
		}
	}
}

func smallWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	ws := make([]workloads.Workload, 0, len(small))
	for _, name := range small {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestParallelSerialEquivalence is the harness's isolation proof: the
// full rendered report must be byte-identical at -parallel 1 and
// -parallel N, for any N. Run under -race in CI.
func TestParallelSerialEquivalence(t *testing.T) {
	ws := smallWorkloads(t)
	serialRes, err := RunSet(ws, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialMem, err := RunMemSet(ws, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := Report(serialRes, serialMem)
	for _, workers := range []int{2, 4, 16} {
		parRes, err := RunSet(ws, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		parMem, err := RunMemSet(ws, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par := Report(parRes, parMem); par != serial {
			t.Errorf("workers=%d: report differs from serial run\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, par)
		}
	}
}

// TestChecksumMismatchNamesMode pins the error format: a cross-mode
// divergence must name the offending mode and both checksum values.
func TestChecksumMismatchNamesMode(t *testing.T) {
	divergent := workloads.Workload{
		Name:  "divergent",
		Suite: "test",
		Run: func(r *rt.Runtime, scale int) (uint64, error) {
			if r.Mode() == rt.Wrapped && !r.M.NoPromote {
				return 0xbad, nil
			}
			return 0x900d, nil
		},
	}
	_, err := RunSet([]workloads.Workload{divergent}, 1, 1)
	if err == nil {
		t.Fatal("divergent checksums undetected")
	}
	want := "divergent: wrapped checksum 0xbad != baseline 0x900d"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want it to contain %q", err, want)
	}
	if strings.Contains(err.Error(), "subheap checksum") {
		t.Errorf("error names non-diverging modes: %q", err)
	}
}

// TestRunSetAggregatesErrors: a failed cell must not mask failures in
// other cells, and the joined error must be deterministic.
func TestRunSetAggregatesErrors(t *testing.T) {
	failing := func(name string) workloads.Workload {
		return workloads.Workload{
			Name:  name,
			Suite: "test",
			Run: func(r *rt.Runtime, scale int) (uint64, error) {
				if r.Instrumented() {
					return 0, fmt.Errorf("%s exploded", name)
				}
				return 1, nil
			},
		}
	}
	for _, workers := range []int{1, 4} {
		_, err := RunSet([]workloads.Workload{failing("first"), failing("second")}, 1, workers)
		if err == nil {
			t.Fatal("errors lost")
		}
		for _, want := range []string{"first exploded", "second exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: joined error %q missing %q", workers, err, want)
			}
		}
	}
}

func TestRunMem(t *testing.T) {
	w, _ := workloads.ByName("treeadd")
	m, err := RunMem(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Baseline == 0 || m.Subheap == 0 || m.Wrapped == 0 {
		t.Errorf("zero footprints: %+v", m)
	}
	// treeadd: subheap packs tighter than baseline; wrapped pays
	// per-object metadata (§5.2.3's sign pattern).
	if m.Subheap >= m.Baseline {
		t.Errorf("treeadd subheap footprint %d >= baseline %d", m.Subheap, m.Baseline)
	}
	if m.Wrapped <= m.Baseline {
		t.Errorf("treeadd wrapped footprint %d <= baseline %d", m.Wrapped, m.Baseline)
	}
	out := Fig12([]MemResult{m})
	if !strings.Contains(out, "treeadd") {
		t.Error("fig12 missing row")
	}
	// The excluded trio never appears as a row.
	out = Fig12([]MemResult{{Name: "ks", Baseline: 1, Subheap: 1, Wrapped: 1}})
	if strings.Contains(out, "\nks ") {
		t.Error("fig12 included an excluded program")
	}
}

// TestEmptySeriesGeomeanRendersNA: restricting the memory experiment to
// an excluded workload (ifp-bench -bench coremark -fig12) leaves the
// series empty; the geo-mean line must say "n/a", not -100.0%.
func TestEmptySeriesGeomeanRendersNA(t *testing.T) {
	out := Fig12([]MemResult{{Name: "coremark", Baseline: 5, Subheap: 5, Wrapped: 5}})
	if !strings.Contains(out, "geo-mean overhead: subheap n/a, wrapped n/a") {
		t.Errorf("fig12 geo-mean not guarded:\n%s", out)
	}
	if strings.Contains(out, "-100.0%") {
		t.Errorf("fig12 printed bogus overhead:\n%s", out)
	}
	// Empty result sets guard the same way in the other renderers.
	if out := Fig10(nil); !strings.Contains(out, "subheap n/a") {
		t.Errorf("fig10 geo-mean not guarded:\n%s", out)
	}
	if out := Table4(nil); !strings.Contains(out, "subheap n/a") {
		t.Errorf("table4 geo-mean not guarded:\n%s", out)
	}
}

func TestAblationsRender(t *testing.T) {
	out, err := Ablations(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"no-walker", "global-only", "explicit-chk", "standard"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
	// The explicit-check ablation must cost instructions vs standard on
	// a check-heavy workload: extract the ft rows and compare.
	std, err := runConfigured("ft", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := runConfigured("ft", 1, func(r *rt.Runtime) { r.ExplicitChecks = true })
	if err != nil {
		t.Fatal(err)
	}
	if exp.Counters.Instrs <= std.Counters.Instrs {
		t.Errorf("explicit checks did not add instructions: %d vs %d",
			exp.Counters.Instrs, std.Counters.Instrs)
	}
	if exp.Counters.IfpChk == 0 {
		t.Error("explicit-check run issued no ifpchk")
	}
	// The no-walker ablation must coarsen health's narrowing.
	stdH, err := runConfigured("health", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := runConfigured("health", 1, func(r *rt.Runtime) { r.M.NoNarrow = true })
	if err != nil {
		t.Fatal(err)
	}
	if stdH.Counters.NarrowSuccess == 0 {
		t.Error("health performed no successful narrowing")
	}
	if nw.Counters.NarrowSuccess != 0 {
		t.Error("no-walker still narrowed")
	}
	if nw.Counters.NarrowCoarse == 0 {
		t.Error("no-walker recorded no coarsening")
	}
}

func TestForceGlobalTableAblation(t *testing.T) {
	m, err := runConfigured("treeadd", 1, func(r *rt.Runtime) { r.ForceGlobalTable = true })
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.NarrowSuccess != 0 {
		t.Error("global-table-only narrowed")
	}
	// 2047 concurrent rows fit; a larger scale exhausts the 4096-row
	// table — the capacity constraint the multi-scheme design avoids.
	if _, err := runConfigured("treeadd", 4, func(r *rt.Runtime) { r.ForceGlobalTable = true }); err == nil {
		t.Error("global table never filled at scale 4 (expected capacity failure)")
	}
}

func TestTagLayouts(t *testing.T) {
	out := TagLayouts()
	for _, want := range []string{"1008 B", "<- paper", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("tag layout table missing %q", want)
		}
	}
}

func TestASICSweep(t *testing.T) {
	out, err := ASICSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FPGA prototype") || !strings.Contains(out, "Geo-mean") {
		t.Error("sweep output malformed")
	}
}

func TestReportComposes(t *testing.T) {
	res := subset(t)
	w, _ := workloads.ByName("treeadd")
	m, err := RunMem(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(res, []MemResult{m})
	for _, want := range []string{"Table 4", "Figure 10", "Figure 11", "Figure 12"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestHybridMode(t *testing.T) {
	// Hybrid runs every workload correctly and lands between (or below)
	// the static choices on the representative pair.
	for _, name := range []string{"treeadd", "yacr2"} {
		w, _ := workloads.ByName(name)
		base, err := runOne(w, rt.Baseline, false, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := runOne(w, rt.Hybrid, false, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if hyb.Checksum != base.Checksum {
			t.Fatalf("%s: hybrid checksum diverged", name)
		}
		if name == "treeadd" && hyb.Stats.HeapPool == 0 {
			t.Error("treeadd hybrid: hot signature never graduated to a pool")
		}
		if name == "yacr2" && hyb.Stats.HeapPool != 0 {
			t.Error("yacr2 hybrid: one-off allocations graduated to pools")
		}
	}
}

// cellAllocBudget bounds the host heap allocations one report cell may
// make once its pooled runtime is warm. The simulated accesses themselves
// allocate nothing: what remains is per-run bookkeeping (the kernel's
// env, the runtime's object maps, the result), measured at 26-60 per ft
// and health cell with go1.24. Per-access allocations — a member lookup
// cache, a child list per heap pop, a parent chain per narrowing promote —
// cost thousands per cell and fail it.
const cellAllocBudget = 100

// TestAllocBudgetKernelCells computes the ft and health cells of a report
// plan — perf cells at scale 1, memory cells at scale 4 — and holds each
// to cellAllocBudget. ft is the promote-heaviest kernel and pops its
// pairing heap thousands of times; health narrows a subobject pointer on
// every admission.
func TestAllocBudgetKernelCells(t *testing.T) {
	for _, name := range []string{"ft", "health"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		p := NewReportPlan([]workloads.Workload{w}, 1, 4)
		for i := 0; i < p.NumCells(); i++ {
			n := testing.AllocsPerRun(1, func() {
				if _, err := p.ComputeCell(i); err != nil {
					t.Fatal(err)
				}
			})
			if n > cellAllocBudget {
				m := p.Meta(i)
				t.Errorf("%s %s cell (%s) makes %.0f allocs, budget %d", name, m.Kind, m.Config, n, cellAllocBudget)
			}
		}
	}
}

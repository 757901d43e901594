package exp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// small runs a cheap subset so the tests stay fast.
var small = []string{"treeadd", "coremark", "voronoi"}

func subset(t *testing.T) []Result {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range small {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		ws = append(ws, w)
	}
	out, err := RunSet(ws, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runMem measures one workload's footprints at the given scale.
func runMem(t *testing.T, name string, scale int) MemResult {
	t.Helper()
	w, _ := workloads.ByName(name)
	m, err := RunMemSet([]workloads.Workload{w}, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m[0]
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
	m := runMem(t, "treeadd", 2)
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

// ablationCell computes workload name's cell in the ablation row
// labelled label of p.
func ablationCell(t *testing.T, p Plan, name, label string) CellResult {
	t.Helper()
	wi := slices.IndexFunc(p.ws, func(w workloads.Workload) bool { return w.Name == name })
	ci := -1
	for _, row := range ablationRows {
		if row.label == label {
			ci = slices.Index(p.cfgs, row.cfg)
		}
	}
	if wi < 0 || ci < 0 {
		t.Fatalf("no ablation cell %s/%s", name, label)
	}
	c, err := p.ComputeCell(wi*len(p.cfgs) + ci)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ablationRun is ablationCell for a row that must run.
func ablationRun(t *testing.T, p Plan, name, label string) ModeResult {
	t.Helper()
	c := ablationCell(t, p, name, label)
	if c.failed != nil {
		t.Fatal(c.failed)
	}
	return *c.Perf
}

func TestAblationsRender(t *testing.T) {
	out, err := RunReport(AblationPlan(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"no-walker", "global-only", "explicit-chk", "standard"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
	// The explicit-check ablation must cost instructions vs standard on
	// a check-heavy workload: compare the ft cells.
	p := AblationPlan(1)
	std, exp := ablationRun(t, p, "ft", "standard"), ablationRun(t, p, "ft", "explicit-chk")
	if exp.Counters.Instrs <= std.Counters.Instrs {
		t.Errorf("explicit checks did not add instructions: %d vs %d",
			exp.Counters.Instrs, std.Counters.Instrs)
	}
	if exp.Counters.IfpChk == 0 {
		t.Error("explicit-check run issued no ifpchk")
	}
	// The no-walker ablation must coarsen health's narrowing.
	stdH, nw := ablationRun(t, p, "health", "standard"), ablationRun(t, p, "health", "no-walker")
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
	m := ablationRun(t, AblationPlan(1), "treeadd", "global-only")
	if m.Counters.NarrowSuccess != 0 {
		t.Error("global-table-only narrowed")
	}
	// 2047 concurrent rows fit; a larger scale exhausts the 4096-row
	// table — the capacity constraint the multi-scheme design avoids.
	if c := ablationCell(t, AblationPlan(4), "treeadd", "global-only"); c.failed == nil {
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

// TestASICSweep checks E10 (§5.2.4) on the ASIC plan's cells: a deeper
// memory hierarchy (miss penalty 20 → 40) lowers subheap's geo-mean
// overhead, and hiding the promote occupancy (PromoteBase 0) lowers it
// again. It pins the four overheads EXPERIMENTS.md E10 quotes.
func TestASICSweep(t *testing.T) {
	p := ASICPlan(1)
	cells, err := RunCampaign(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Render(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FPGA prototype") || !strings.Contains(out, "Geo-mean") {
		t.Error("sweep output malformed")
	}
	for i, want := range []string{"+7.4%", "+3.5%", "+1.1%", "+6.7%"} {
		pt := asicPoints[i]
		if got := fmt.Sprintf("%+.1f%%", stats.Overhead(asicOverhead(p, cells, pt))); got != want {
			t.Errorf("%s: geo-mean overhead %s, EXPERIMENTS.md E10 quotes %s", pt.label, got, want)
		}
	}
	fpga, deep, hidden := asicOverhead(p, cells, asicPoints[0]), asicOverhead(p, cells, asicPoints[1]), asicOverhead(p, cells, asicPoints[2])
	if deep >= fpga {
		t.Errorf("miss penalty 40 did not lower the overhead: %.4f vs %.4f at 20", deep, fpga)
	}
	if hidden >= deep {
		t.Errorf("PromoteBase 0 did not lower the overhead: %.4f vs %.4f at 2", hidden, deep)
	}

	// The drop at miss penalty 40 is subheap's alone: over the sweep's
	// own points and workloads, wrapped's overhead rises (E10 quotes
	// these values). The sweep itself, and so -asic's output, stays
	// subheap-only.
	wrapped := func(pt asicPoint) (base, inst Config) {
		base, inst = pt.configs()
		inst.Mode = rt.Wrapped
		return base, inst
	}
	var cfgs []Config
	for _, pt := range asicPoints {
		base, inst := wrapped(pt)
		for _, c := range []Config{base, inst} {
			if !slices.Contains(cfgs, c) {
				cfgs = append(cfgs, c)
			}
		}
	}
	wp := sectionPlan(namedWorkloads(asicWorkloads), 1, cfgs, renderASIC)
	wcells, err := RunCampaign(wp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var woh []float64
	for i, want := range []string{"+31.6%", "+34.0%", "+31.7%", "+25.6%"} {
		base, inst := wrapped(asicPoints[i])
		var ratios []float64
		for wi := range wp.ws {
			ratios = append(ratios, stats.Ratio(wp.cell(wcells, wi, inst).Perf.Counters.Cycles,
				wp.cell(wcells, wi, base).Perf.Counters.Cycles))
		}
		woh = append(woh, stats.Geomean(ratios))
		if got := fmt.Sprintf("%+.1f%%", stats.Overhead(woh[i])); got != want {
			t.Errorf("wrapped at %s: geo-mean overhead %s, EXPERIMENTS.md E10 quotes %s", asicPoints[i].label, got, want)
		}
	}
	if woh[1] <= woh[0] {
		t.Errorf("wrapped's overhead did not rise at miss penalty 40: %.4f vs %.4f at 20", woh[1], woh[0])
	}
}

func TestReportComposes(t *testing.T) {
	res := subset(t)
	m := runMem(t, "treeadd", 1)
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
		base, err := runOne(w, cfgBaseline, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := runOne(w, cfgHybrid, 1, false)
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

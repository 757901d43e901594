// Package exp is the evaluation harness: it runs every §5.2 workload in
// the five configurations the paper compares (baseline; subheap and
// wrapped allocators; each with and without promote) and renders Table 4
// and Figures 10, 11, and 12 from the collected machine counters.
//
// The grid is embarrassingly parallel — every (workload, configuration)
// cell builds its own rt.Runtime, so cells share no mutable state — and
// the harness fans cells out over a bounded worker pool (internal/pool).
// Every campaign runs through one runner (RunCampaign): results land in
// pre-indexed slots, so report ordering, checksum verification, and
// error text are identical at any worker count; a worker count of 1
// restores the fully serial path.
package exp

import (
	"errors"
	"fmt"
	"strings"

	"infat/internal/machine"
	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// ModeResult captures one run's observables.
type ModeResult struct {
	Counters  machine.Counters
	Stats     rt.Stats
	Footprint uint64
	Checksum  uint64
	L1DMisses uint64
}

// Result holds all five configurations of one workload — plus, for
// plans with the temporal axis enabled, the ifp-temporal run.
type Result struct {
	Name     string
	Suite    string
	Baseline ModeResult
	Subheap  ModeResult
	Wrapped  ModeResult
	// No-promote variants isolate the promote instruction's cost (§5.2).
	SubheapNP ModeResult
	WrappedNP ModeResult
	// Temporal is the rt.IFPTemporal run (generation tagging). Zero unless
	// the plan was built WithTemporal — the spatial campaigns never touch
	// it, which keeps their reports byte-identical to the pre-temporal
	// harness.
	Temporal ModeResult
}

// runOne executes a workload in one configuration. A footprint run — a
// Figure-12 memory cell — takes the runtime's footprint-only path
// (rt.Runtime.FootprintOnly): its Footprint, Checksum and Stats are the
// full run's, and its Counters and L1DMisses are not the mode's. A full
// run relies on the Reset inside rt.Acquire to have cleared the state.
func runOne(w workloads.Workload, mode rt.Mode, noPromote bool, scale int, footprint bool) (ModeResult, error) {
	r := rt.Acquire(mode)
	defer rt.Release(r)
	r.M.NoPromote = noPromote
	if footprint {
		r.FootprintOnly()
	}
	sum, err := w.Run(r, scale)
	if err != nil {
		return ModeResult{}, fmt.Errorf("%s/%v(np=%v): %w", w.Name, mode, noPromote, err)
	}
	return ModeResult{
		Counters:  r.M.C,
		Stats:     r.Stats,
		Footprint: r.Footprint(),
		Checksum:  sum,
		L1DMisses: r.M.L1D.Stats().Misses,
	}, nil
}

// cellConfig is one per-workload run configuration of the evaluation
// grid; dst selects the slot a cell's result lands in.
type cellConfig struct {
	label     string
	mode      rt.Mode
	noPromote bool
	dst       func(*Result) *ModeResult
}

// cellConfigs enumerates the five per-workload configurations in the
// paper's comparison order.
var cellConfigs = []cellConfig{
	{"baseline", rt.Baseline, false, func(r *Result) *ModeResult { return &r.Baseline }},
	{"subheap", rt.Subheap, false, func(r *Result) *ModeResult { return &r.Subheap }},
	{"wrapped", rt.Wrapped, false, func(r *Result) *ModeResult { return &r.Wrapped }},
	{"subheap-nopromote", rt.Subheap, true, func(r *Result) *ModeResult { return &r.SubheapNP }},
	{"wrapped-nopromote", rt.Wrapped, true, func(r *Result) *ModeResult { return &r.WrappedNP }},
}

// temporalConfigs is the temporal-axis enumeration: the five spatial
// configurations (unchanged, in the same order, so every spatial cell of
// a temporal plan has the same seq as in a spatial plan's prefix)
// followed by the ifp-temporal run.
var temporalConfigs = append(append([]cellConfig{}, cellConfigs...),
	cellConfig{"ifp-temporal", rt.IFPTemporal, false, func(r *Result) *ModeResult { return &r.Temporal }})

// verifyChecksums asserts the instrumented configurations reproduced the
// baseline checksum, naming each diverging mode and both values.
func (r *Result) verifyChecksums(cfgs []cellConfig) error {
	var errs []error
	for _, cfg := range cfgs[1:] {
		if got := cfg.dst(r).Checksum; got != r.Baseline.Checksum {
			errs = append(errs, fmt.Errorf("%s: %s checksum %#x != baseline %#x",
				r.Name, cfg.label, got, r.Baseline.Checksum))
		}
	}
	return errors.Join(errs...)
}

// RunSet executes the five configurations of each given workload, fanning
// the (workload × configuration) cells over at most workers goroutines
// (workers <= 0 selects GOMAXPROCS, 1 is fully serial) through
// RunCampaign. Results come back in the given workload order, so output
// is byte-identical at any worker count; a failed cell does not abort the
// rest of the grid — all cell and checksum errors are joined.
func RunSet(ws []workloads.Workload, scale, workers int) ([]Result, error) {
	p := NewPlan(ws, scale)
	cells, err := RunCampaign(p, workers)
	if err != nil {
		return nil, err
	}
	results, _, err := p.Results(cells)
	return results, err
}

// Table4 renders the dynamic-event-count table: object instrumentation
// per category (with layout-table share), valid promotes, and the dynamic
// instruction increase of both allocator versions.
func Table4(results []Result) string {
	var t stats.Table
	t.Add("Benchmark", "Glob#", "%LT", "Loc#", "%LT", "Heap#", "%LT",
		"ValidPromote", "%Total", "BaseInstr", "Subheap", "Wrapped")
	for _, r := range results {
		s := r.Subheap.Stats // LT/subobject stats come from the subheap version (§5.2.1)
		c := r.Subheap.Counters
		t.Add(r.Name,
			fmt.Sprint(s.GlobalObjects), stats.Pct(s.GlobalWithLT, s.GlobalObjects),
			stats.SI(s.LocalObjects), stats.Pct(s.LocalWithLT, s.LocalObjects),
			stats.SI(s.HeapObjects), stats.Pct(s.HeapWithLT, s.HeapObjects),
			stats.SI(c.PromoteValid), stats.Pct(c.PromoteValid, c.Promote),
			stats.SI(r.Baseline.Counters.Instrs),
			fmt.Sprintf("%.2fx", stats.Ratio(r.Subheap.Counters.Instrs, r.Baseline.Counters.Instrs)),
			fmt.Sprintf("%.2fx", stats.Ratio(r.Wrapped.Counters.Instrs, r.Baseline.Counters.Instrs)))
	}
	var subR, wrapR []float64
	for _, r := range results {
		subR = append(subR, stats.Ratio(r.Subheap.Counters.Instrs, r.Baseline.Counters.Instrs))
		wrapR = append(wrapR, stats.Ratio(r.Wrapped.Counters.Instrs, r.Baseline.Counters.Instrs))
	}
	return "Table 4: Dynamic Event Counts on Object Instrumentation, Promotion, and Instructions Executed\n" +
		t.String() +
		fmt.Sprintf("geo-mean dynamic instruction increase: subheap %s, wrapped %s\n",
			stats.GeomeanRatio(subR), stats.GeomeanRatio(wrapR))
}

// Fig10 renders the runtime-overhead figure: cycles of each instrumented
// configuration normalized to baseline.
func Fig10(results []Result) string {
	var t stats.Table
	t.Add("Benchmark", "Subheap", "Wrapped", "Subheap(NoPromote)", "Wrapped(NoPromote)")
	var sr, wr []float64
	for _, r := range results {
		base := r.Baseline.Counters.Cycles
		ratio := func(m ModeResult) float64 { return stats.Ratio(m.Counters.Cycles, base) }
		sr = append(sr, ratio(r.Subheap))
		wr = append(wr, ratio(r.Wrapped))
		t.Add(r.Name,
			pctCell(ratio(r.Subheap)), pctCell(ratio(r.Wrapped)),
			pctCell(ratio(r.SubheapNP)), pctCell(ratio(r.WrappedNP)))
	}
	return "Figure 10: Performance Overhead of All Benchmarks (cycles vs baseline)\n" +
		t.String() +
		fmt.Sprintf("geo-mean overhead: subheap %s, wrapped %s\n",
			stats.GeomeanOverhead(sr), stats.GeomeanOverhead(wr))
}

func pctCell(ratio float64) string { return fmt.Sprintf("%+.1f%%", stats.Overhead(ratio)) }

// Fig11 renders the IFP dynamic-instruction-mix figure: promote,
// arithmetic, and bounds load/store instructions as a share of the
// baseline instruction count (the paper normalizes to baseline counts).
func Fig11(results []Result) string {
	var t stats.Table
	t.Add("Benchmark", "Promote", "Arithmetic", "BoundsLd/St", "Total")
	for _, r := range results {
		for _, v := range []struct {
			label string
			m     ModeResult
		}{{"subheap", r.Subheap}, {"wrapped", r.Wrapped}} {
			base := float64(r.Baseline.Counters.Instrs)
			c := v.m.Counters
			pct := func(n uint64) string { return fmt.Sprintf("%.1f%%", 100*float64(n)/base) }
			t.Add(r.Name+"/"+v.label,
				pct(c.Promote), pct(c.IfpArith()), pct(c.IfpBoundsMem()),
				pct(c.IfpTotal()))
		}
	}
	return "Figure 11: Dynamic Instruction Counts for Instructions from In-Fat Pointer (normalized to baseline)\n" +
		t.String()
}

// MemResult carries the footprints of the three configurations that
// matter for memory (§5.2: "no-promote has no difference in memory
// overhead").
type MemResult struct {
	Name                       string
	Baseline, Subheap, Wrapped uint64
}

// MemScale is the default scale multiplier for the memory experiment: the
// paper measures maximum resident size of multi-MB runs, so footprints
// must be large enough that page granularity does not dominate.
const MemScale = 4

// memModes enumerates the three configurations the memory experiment
// compares, in column order.
var memModes = []struct {
	mode rt.Mode
	dst  func(*MemResult) *uint64
}{
	{rt.Baseline, func(m *MemResult) *uint64 { return &m.Baseline }},
	{rt.Subheap, func(m *MemResult) *uint64 { return &m.Subheap }},
	{rt.Wrapped, func(m *MemResult) *uint64 { return &m.Wrapped }},
}

// RunMemSet measures the given workloads' footprints at the given
// (already multiplied) scale, fanning the (workload × mode) cells of a
// NewMemPlan over at most workers goroutines the way RunSet does.
func RunMemSet(ws []workloads.Workload, scale, workers int) ([]MemResult, error) {
	p := NewMemPlan(ws, scale)
	cells, err := RunCampaign(p, workers)
	if err != nil {
		return nil, err
	}
	_, mem, err := p.Results(cells)
	return mem, err
}

// Fig12 renders the memory-overhead figure. The paper excludes programs
// whose footprint is too small for `time -v` to resolve (ks, yacr2,
// coremark); we exclude the same three for fidelity.
func Fig12(results []MemResult) string {
	excluded := map[string]bool{"ks": true, "yacr2": true, "coremark": true}
	var t stats.Table
	t.Add("Benchmark", "Subheap", "Wrapped")
	var sr, wr []float64
	for _, r := range results {
		if excluded[r.Name] {
			continue
		}
		s := stats.Ratio(r.Subheap, r.Baseline)
		w := stats.Ratio(r.Wrapped, r.Baseline)
		sr = append(sr, s)
		wr = append(wr, w)
		t.Add(r.Name, pctCell(s), pctCell(w))
	}
	return "Figure 12: Memory Overhead of Applicable Benchmarks (resident pages vs baseline)\n" +
		t.String() +
		fmt.Sprintf("geo-mean overhead: subheap %s, wrapped %s\n",
			stats.GeomeanOverhead(sr), stats.GeomeanOverhead(wr))
}

// Report renders everything.
func Report(results []Result, mem []MemResult) string {
	var b strings.Builder
	b.WriteString(Table4(results))
	b.WriteString("\n")
	b.WriteString(Fig10(results))
	b.WriteString("\n")
	b.WriteString(Fig11(results))
	b.WriteString("\n")
	b.WriteString(Fig12(mem))
	return b.String()
}

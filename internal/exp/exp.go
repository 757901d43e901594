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
	"fmt"
	"reflect"
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

// Result holds one workload's runs in the five report configurations.
type Result struct {
	Name     string
	Suite    string
	Baseline ModeResult
	Subheap  ModeResult
	Wrapped  ModeResult
	// No-promote variants isolate the promote instruction's cost (§5.2).
	SubheapNP ModeResult
	WrappedNP ModeResult
}

// fields returns r's runs in reportConfigs order.
func (r *Result) fields() [5]*ModeResult {
	return [...]*ModeResult{&r.Baseline, &r.Subheap, &r.Wrapped, &r.SubheapNP, &r.WrappedNP}
}

// Config is one perf cell's run configuration: the mode, the promote
// toggle, the design-choice ablation knobs (DESIGN.md §5) and the whole
// cost model, every field as given (PromoteBase 0 is a real ASIC point),
// so build one from ModeConfig. Equal configurations are one cell.
type Config struct {
	Mode      rt.Mode
	NoPromote bool
	// No layout walker, the global table as the only scheme, ifpchk per access.
	NoNarrow, ForceGlobalTable, ExplicitChecks bool
	Cost                                       machine.CostModel
}

// ModeConfig is mode's configuration with every knob at its default.
func ModeConfig(mode rt.Mode, noPromote bool) Config {
	return Config{Mode: mode, NoPromote: noPromote, Cost: machine.DefaultCost}
}

// The report configurations, in the paper's comparison order.
var (
	cfgBaseline   = ModeConfig(rt.Baseline, false)
	cfgSubheap    = ModeConfig(rt.Subheap, false)
	cfgWrapped    = ModeConfig(rt.Wrapped, false)
	reportConfigs = []Config{cfgBaseline, cfgSubheap, cfgWrapped,
		ModeConfig(rt.Subheap, true), ModeConfig(rt.Wrapped, true)}
)

// ablated reports whether an ablation knob is set.
func (c Config) ablated() bool { return c.NoNarrow || c.ForceGlobalTable || c.ExplicitChecks }

// String is the cell label: the mode, "-nopromote", "+Knob" per ablation
// knob set and "+Field=value" per cost field off machine.DefaultCost, so
// a default-knob configuration keeps the report grid's label.
func (c Config) String() string {
	s := c.Mode.String()
	if c.NoPromote {
		s += "-nopromote"
	}
	if c.NoNarrow {
		s += "+NoNarrow"
	}
	if c.ForceGlobalTable {
		s += "+ForceGlobalTable"
	}
	if c.ExplicitChecks {
		s += "+ExplicitChecks"
	}
	if c.Cost != machine.DefaultCost {
		cost, def := reflect.ValueOf(c.Cost), reflect.ValueOf(machine.DefaultCost)
		for i := range cost.NumField() {
			if v := cost.Field(i).Uint(); v != def.Field(i).Uint() {
				s += fmt.Sprintf("+%s=%d", cost.Type().Field(i).Name, v)
			}
		}
	}
	return s
}

// acquire checks a runtime out of the pool configured as c.
func (c Config) acquire() *rt.Runtime {
	r := rt.Acquire(c.Mode)
	r.M.NoPromote, r.M.NoNarrow, r.M.Cost = c.NoPromote, c.NoNarrow, c.Cost
	r.ForceGlobalTable, r.ExplicitChecks = c.ForceGlobalTable, c.ExplicitChecks
	return r
}

// runOne executes a workload in one configuration. A footprint run — a
// Figure-12 memory cell — takes the runtime's footprint-only path
// (rt.Runtime.FootprintOnly): its Footprint, Checksum and Stats are the
// full run's, and its Counters and L1DMisses are not the mode's. A full
// run relies on the Reset inside rt.Acquire to have cleared the state.
func runOne(w workloads.Workload, c Config, scale int, footprint bool) (ModeResult, error) {
	r := c.acquire()
	defer rt.Release(r)
	if footprint {
		r.FootprintOnly()
	}
	sum, err := w.Run(r, scale)
	if err != nil {
		return ModeResult{}, fmt.Errorf("%s/%v(np=%v): %w", w.Name, c.Mode, c.NoPromote, err)
	}
	return ModeResult{
		Counters:  r.M.C,
		Stats:     r.Stats,
		Footprint: r.Footprint(),
		Checksum:  sum,
		L1DMisses: r.M.L1D.Stats().Misses,
	}, nil
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
var memModes = [...]rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped}

// fields returns m's footprints in memModes order.
func (m *MemResult) fields() [3]*uint64 { return [...]*uint64{&m.Baseline, &m.Subheap, &m.Wrapped} }

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

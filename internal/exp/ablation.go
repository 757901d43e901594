package exp

import (
	"fmt"
	"strings"

	"infat/internal/pool"
	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/tag"
	"infat/internal/workloads"
)

// ablationWorkloads is the representative subset used by the design-choice
// ablations: an allocation-heavy tree (treeadd), a list-chasing cache
// thrasher (health), and an opaque-allocation program (coremark).
var ablationWorkloads = []string{"treeadd", "health", "coremark", "ft"}

// runConfigured runs one workload with a configuration hook applied to the
// fresh runtime before execution.
func runConfigured(name string, scale int, cfg func(*rt.Runtime)) (ModeResult, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return ModeResult{}, fmt.Errorf("exp: unknown workload %q", name)
	}
	r := rt.Acquire(rt.Subheap)
	defer rt.Release(r)
	if cfg != nil {
		cfg(r)
	}
	sum, err := w.Run(r, scale)
	if err != nil {
		return ModeResult{}, fmt.Errorf("%s: %w", name, err)
	}
	return ModeResult{
		Counters:  r.M.C,
		Stats:     r.Stats,
		Footprint: r.Footprint(),
		Checksum:  sum,
	}, nil
}

// ablationRows are the ablation configurations, row 0 being the standard
// subheap instrumentation the others' checksums are verified against.
var ablationRows = []struct {
	cfg   func(*rt.Runtime)
	label string
	note  string
}{
	{func(r *rt.Runtime) {}, "standard", ""},
	{func(r *rt.Runtime) { r.M.NoNarrow = true }, "no-walker",
		"object-granularity only (saves 3,059 LUTs)"},
	{func(r *rt.Runtime) { r.ForceGlobalTable = true }, "global-only",
		"single scheme; 4096-object cap; no narrowing"},
	{func(r *rt.Runtime) { r.ExplicitChecks = true }, "explicit-chk",
		"ifpchk per access instead of implicit"},
}

// Ablations runs the DESIGN.md §5 design-choice ablations on the subset
// and renders a comparison: standard subheap instrumentation versus
// (a) no layout walker, (b) global-table-only metadata, and (c) explicit
// checks instead of implicit checking. The per-workload runs fan over at
// most workers goroutines. A configuration that fails to run renders as
// a FAILED row (capacity exhaustion under global-only is itself a result
// worth reporting), not a harness error, in parallel and serial alike.
func Ablations(scale, workers int) (string, error) {
	type cell struct {
		m   ModeResult
		err error
	}
	// Per workload: one full five-configuration run (its baseline is the
	// ratio denominator) plus one configured run per ablation row.
	stride := 1 + len(ablationRows)
	baselines := make([]Result, len(ablationWorkloads))
	cells := make([]cell, len(ablationWorkloads)*len(ablationRows))
	if err := pool.Map(workers, len(ablationWorkloads)*stride, func(c int) error {
		wi, ti := c/stride, c%stride
		name := ablationWorkloads[wi]
		if ti == 0 {
			r, err := RunSet([]workloads.Workload{mustWorkload(name)}, scale, 1)
			if err != nil {
				return err
			}
			baselines[wi] = r[0]
			return nil
		}
		m, err := runConfigured(name, scale, ablationRows[ti-1].cfg)
		cells[wi*len(ablationRows)+ti-1] = cell{m, err}
		return nil
	}); err != nil {
		return "", err
	}

	var t stats.Table
	t.Add("Workload", "Config", "Instr ratio", "Cycle ratio", "NarrowOK", "NarrowCoarse", "Notes")
	for wi, name := range ablationWorkloads {
		std := cells[wi*len(ablationRows)]
		if std.err != nil {
			return "", std.err
		}
		denomI := baselines[wi].Baseline.Counters.Instrs
		denomC := baselines[wi].Baseline.Counters.Cycles
		for ri, row := range ablationRows {
			c := cells[wi*len(ablationRows)+ri]
			if c.err != nil {
				t.Add(name, row.label, "-", "-", "-", "-", "FAILED: "+c.err.Error())
				continue
			}
			if c.m.Checksum != std.m.Checksum {
				return "", fmt.Errorf("exp: %s/%s checksum %#x != standard %#x",
					name, row.label, c.m.Checksum, std.m.Checksum)
			}
			t.Add(name, row.label,
				fmt.Sprintf("%.2fx", stats.Ratio(c.m.Counters.Instrs, denomI)),
				fmt.Sprintf("%.2fx", stats.Ratio(c.m.Counters.Cycles, denomC)),
				fmt.Sprint(c.m.Counters.NarrowSuccess),
				fmt.Sprint(c.m.Counters.NarrowCoarse),
				row.note)
		}
	}
	return "Design-choice ablations (vs uninstrumented baseline of each workload)\n" + t.String(), nil
}

func mustWorkload(name string) workloads.Workload {
	w, _ := workloads.ByName(name)
	return w
}

// TagLayouts renders the tag-bit capacity trade-off of DESIGN.md §5.1:
// alternate splits of the 12 scheme-metadata/subobject bits for the
// local-offset scheme. The paper chose 6+6.
func TagLayouts() string {
	var t stats.Table
	t.Add("Offset bits", "Subobject bits", "Max object size", "Max layout entries", "Chosen")
	for off := 4; off <= 8; off++ {
		sub := 12 - off
		maxSize := ((1 << off) - 1) * tag.Granule
		chosen := ""
		if off == tag.LocalOffsetBits {
			chosen = "<- paper"
		}
		t.Add(fmt.Sprint(off), fmt.Sprint(sub),
			fmt.Sprintf("%d B", maxSize), fmt.Sprint(1<<sub), chosen)
	}
	return "Local-offset tag split trade-off (12 bits shared, 16-byte granule)\n" + t.String()
}

// ASICSweep is the §5.2.4 extrapolation: sensitivity of the geo-mean
// overhead to the memory system (miss penalty) and to how well a wider
// core hides the IFP unit's fixed costs (promote base cost).
func ASICSweep(scale int) (string, error) {
	type point struct {
		label       string
		missPenalty uint64
		promoteBase uint64
	}
	points := []point{
		{"FPGA prototype (50 MHz, slow core : fast DRAM)", 20, 2},
		{"ASIC, deeper memory hierarchy", 40, 2},
		{"ASIC, promote latency hidden (OoO issue)", 40, 0},
		{"ASIC, aggressive (large caches modelled as low penalty)", 10, 0},
	}
	subset := []string{"treeadd", "health", "ft", "power", "coremark"}

	var b strings.Builder
	b.WriteString("ASIC extrapolation sweep (geo-mean subheap overhead over subset)\n")
	var t stats.Table
	t.Add("Configuration", "MissPenalty", "PromoteBase", "Geo-mean overhead")
	for _, pt := range points {
		var ratios []float64
		for _, name := range subset {
			ratio, err := asicRatio(mustWorkload(name), scale, pt.missPenalty, pt.promoteBase)
			if err != nil {
				return "", err
			}
			ratios = append(ratios, ratio)
		}
		t.Add(pt.label, fmt.Sprint(pt.missPenalty), fmt.Sprint(pt.promoteBase),
			fmt.Sprintf("%+.1f%%", stats.Overhead(stats.Geomean(ratios))))
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// asicRatio runs one workload uninstrumented and instrumented under an
// adjusted cost model and returns the cycle ratio. Pooled runtimes are
// acquired per run and released with the default cost model restored by
// the pool's Reset.
func asicRatio(w workloads.Workload, scale int, missPenalty, promoteBase uint64) (float64, error) {
	base := rt.Acquire(rt.Baseline)
	defer rt.Release(base)
	base.M.Cost.MissPenalty = missPenalty
	if _, err := w.Run(base, scale); err != nil {
		return 0, err
	}
	inst := rt.Acquire(rt.Subheap)
	defer rt.Release(inst)
	inst.M.Cost.MissPenalty = missPenalty
	inst.M.Cost.PromoteBase = promoteBase
	if _, err := w.Run(inst, scale); err != nil {
		return 0, err
	}
	return stats.Ratio(inst.M.C.Cycles, base.M.C.Cycles), nil
}

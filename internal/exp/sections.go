package exp

import (
	"errors"
	"fmt"
	"slices"

	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/tag"
	"infat/internal/workloads"
)

// ablationWorkloads is the representative subset used by the design-choice
// ablations: an allocation-heavy tree (treeadd), a list-chasing cache
// thrasher (health), an opaque-allocation program (coremark), and a
// check-heavy kernel (ft).
var ablationWorkloads = []string{"treeadd", "health", "coremark", "ft"}

// ablationRows are the ablation report's rows, row 0 being the standard
// subheap instrumentation.
var ablationRows = []struct {
	cfg         Config
	label, note string
}{
	{cfgSubheap, "standard", ""},
	{Config{Mode: rt.Subheap, NoNarrow: true, Cost: cfgSubheap.Cost}, "no-walker",
		"object-granularity only (saves 3,059 LUTs)"},
	{Config{Mode: rt.Subheap, ForceGlobalTable: true, Cost: cfgSubheap.Cost}, "global-only",
		"single scheme; 4096-object cap; no narrowing"},
	{Config{Mode: rt.Subheap, ExplicitChecks: true, Cost: cfgSubheap.Cost}, "explicit-chk",
		"ifpchk per access instead of implicit"},
}

// AblationPlan enumerates the DESIGN.md §5 design-choice ablations at
// scale (raised to at least 1): each ablation workload uninstrumented
// (the ratio denominator) and in every ablation row.
func AblationPlan(scale int) Plan {
	cfgs := []Config{cfgBaseline}
	for _, row := range ablationRows {
		cfgs = append(cfgs, row.cfg)
	}
	return sectionPlan(namedWorkloads(ablationWorkloads), scale, cfgs, renderAblations)
}

// renderAblations compares standard subheap instrumentation with (a) no
// layout walker, (b) global-table-only metadata, and (c) explicit checks.
// A row that fails to run is a FAILED row, not a harness error.
func renderAblations(p Plan, cells []CellResult) string {
	var t stats.Table
	t.Add("Workload", "Config", "Instr ratio", "Cycle ratio", "NarrowOK", "NarrowCoarse", "Notes")
	for wi, w := range p.ws {
		base := p.cell(cells, wi, cfgBaseline).Perf.Counters
		for _, row := range ablationRows {
			c := p.cell(cells, wi, row.cfg)
			if c.failed != nil {
				t.Add(w.Name, row.label, "-", "-", "-", "-",
					fmt.Sprintf("FAILED: %s: %v", w.Name, errors.Unwrap(c.failed)))
				continue
			}
			m := c.Perf.Counters
			t.Add(w.Name, row.label,
				fmt.Sprintf("%.2fx", stats.Ratio(m.Instrs, base.Instrs)),
				fmt.Sprintf("%.2fx", stats.Ratio(m.Cycles, base.Cycles)),
				fmt.Sprint(m.NarrowSuccess), fmt.Sprint(m.NarrowCoarse), row.note)
		}
	}
	return "Design-choice ablations (vs uninstrumented baseline of each workload)\n" + t.String()
}

// namedWorkloads resolves workload names from the built-in suite.
func namedWorkloads(names []string) []workloads.Workload {
	ws := make([]workloads.Workload, len(names))
	for i, name := range names {
		ws[i], _ = workloads.ByName(name)
	}
	return ws
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

// asicPoint is one §5.2.4 extrapolation point: a memory system (miss
// penalty) and how well a wider core hides the IFP unit's fixed costs
// (promote base cost).
type asicPoint struct {
	label                    string
	missPenalty, promoteBase uint64
}

var asicPoints = []asicPoint{
	{"FPGA prototype (50 MHz, slow core : fast DRAM)", 20, 2},
	{"ASIC, deeper memory hierarchy", 40, 2},
	{"ASIC, promote latency hidden (OoO issue)", 40, 0},
	{"ASIC, aggressive (large caches modelled as low penalty)", 10, 0},
}

// asicWorkloads is the subset the sweep's geo-mean runs over.
var asicWorkloads = []string{"treeadd", "health", "ft", "power", "coremark"}

// configs returns the point's uninstrumented and subheap configurations.
// The baseline keeps the default promote cost: it runs no promote.
func (pt asicPoint) configs() (base, inst Config) {
	base, inst = cfgBaseline, cfgSubheap
	base.Cost.MissPenalty = pt.missPenalty
	inst.Cost.MissPenalty, inst.Cost.PromoteBase = pt.missPenalty, pt.promoteBase
	return base, inst
}

// ASICPlan enumerates the §5.2.4 extrapolation sweep at scale (raised to
// at least 1): each ASIC workload in each distinct point configuration.
func ASICPlan(scale int) Plan {
	var cfgs []Config
	for _, pt := range asicPoints {
		base, inst := pt.configs()
		for _, c := range []Config{base, inst} {
			if !slices.Contains(cfgs, c) {
				cfgs = append(cfgs, c)
			}
		}
	}
	return sectionPlan(namedWorkloads(asicWorkloads), scale, cfgs, renderASIC)
}

// asicOverhead is a point's geo-mean subheap cycle ratio.
func asicOverhead(p Plan, cells []CellResult, pt asicPoint) float64 {
	base, inst := pt.configs()
	var ratios []float64
	for wi := range p.ws {
		ratios = append(ratios, stats.Ratio(p.cell(cells, wi, inst).Perf.Counters.Cycles,
			p.cell(cells, wi, base).Perf.Counters.Cycles))
	}
	return stats.Geomean(ratios)
}

// renderASIC renders the geo-mean overhead at each point.
func renderASIC(p Plan, cells []CellResult) string {
	var t stats.Table
	t.Add("Configuration", "MissPenalty", "PromoteBase", "Geo-mean overhead")
	for _, pt := range asicPoints {
		t.Add(pt.label, fmt.Sprint(pt.missPenalty), fmt.Sprint(pt.promoteBase),
			fmt.Sprintf("%+.1f%%", stats.Overhead(asicOverhead(p, cells, pt))))
	}
	return "ASIC extrapolation sweep (geo-mean subheap overhead over subset)\n" + t.String()
}

var cfgHybrid = ModeConfig(rt.Hybrid, false)

// HybridPlan enumerates the dynamic allocator-selection comparison
// (§4.2.1's future work) at scale (raised to at least 1): every workload
// in baseline, the paper's two static choices, and hybrid.
func HybridPlan(scale int) Plan {
	return sectionPlan(workloads.All, scale,
		[]Config{cfgBaseline, cfgSubheap, cfgWrapped, cfgHybrid}, renderHybrid)
}

// renderHybrid compares hybrid against the static choices. The
// hypothesis the paper sketches: hybrid should track subheap on
// pool-friendly programs and avoid subheap's losses where metadata fits
// the cache anyway.
func renderHybrid(p Plan, cells []CellResult) string {
	return versusStatic(p, cells, "Hybrid allocator (dynamic scheme selection, §4.2.1 future work)",
		cfgHybrid, []string{"Hybrid", "Hybrid heap split (pool/wrapped)"}, func(m ModeResult) []string {
			s := m.Stats
			return []string{fmt.Sprintf("%d pool / %d other of %d objects", s.HeapPool, s.HeapObjects-s.HeapPool, s.HeapObjects)}
		})
}

// versusStatic renders x against the static choices: per workload the
// cycle overhead of subheap, wrapped and x, then cols of x's run under
// heads (x's own column first), then the geo-means.
func versusStatic(p Plan, cells []CellResult, title string, x Config, heads []string, cols func(ModeResult) []string) string {
	var t stats.Table
	t.Add(append([]string{"Benchmark", "Subheap", "Wrapped"}, heads...)...)
	var sr, wr, xr []float64
	for wi, w := range p.ws {
		ratio := func(c Config) float64 {
			return stats.Ratio(p.cell(cells, wi, c).Perf.Counters.Cycles, p.cell(cells, wi, cfgBaseline).Perf.Counters.Cycles)
		}
		rs, rw, rx := ratio(cfgSubheap), ratio(cfgWrapped), ratio(x)
		sr, wr, xr = append(sr, rs), append(wr, rw), append(xr, rx)
		t.Add(append([]string{w.Name, pctCell(rs), pctCell(rw), pctCell(rx)}, cols(*p.cell(cells, wi, x).Perf)...)...)
	}
	return title + "\n" + t.String() + fmt.Sprintf("geo-mean overhead: subheap %s, wrapped %s, %v %s\n",
		stats.GeomeanOverhead(sr), stats.GeomeanOverhead(wr), x.Mode, stats.GeomeanOverhead(xr))
}

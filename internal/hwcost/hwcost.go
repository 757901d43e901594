// Package hwcost models the FPGA area cost of the In-Fat Pointer hardware
// (§5.3, Figure 13). The paper reports Vivado LUT counts for the modified
// CVA6: 37,088 LUTs vanilla → 59,261 modified (+60%), with the increase
// decomposed by pipeline component — the IFP unit (38% of the increase),
// the widened load-store unit (19%), the bounds register file and its
// forwarding in the issue stage (29%), and sundry plumbing (<10%). Within
// the IFP unit, the layout-table walker is the largest block (3,059 LUTs,
// 36%) and the three metadata schemes together take 2,501 (30%).
//
// The model is parameterized so the §5.3 trade-off discussion is
// reproducible: dropping the bounds register file saves more area than
// the whole IFP unit; dropping the layout walker saves its 3,059 LUTs at
// the price of subobject narrowing in promote.
package hwcost

import (
	"fmt"
	"strings"

	"infat/internal/stats"
)

// Paper-reported totals (Vivado 2018.2, Kintex-7 XC7K325T).
const (
	VanillaLUTs  = 37088
	ModifiedLUTs = 59261
	VanillaFFs   = 21993
	ModifiedFFs  = 32545
)

// Config holds the design knobs the area model responds to.
type Config struct {
	BoundsRegs  int  // number of bounds registers (paper: 32, one per GPR)
	BoundsBits  int  // bounds register width (paper: 96)
	LocalOffset bool // local-offset scheme logic
	Subheap     bool // subheap scheme logic (includes the slot divider)
	GlobalTable bool // global-table scheme logic
	LayoutWalk  bool // layout-table walker (§5.3: may be dropped for area)
	MAC         bool // metadata MAC unit
	ImplicitChk bool // implicit bounds checking in the LSU
	// Temporal adds the generation comparator to promote (the xTag-style
	// temporal extension): an up-to-12-bit equality compare between the
	// pointer's tag generation and the per-chunk generation store, plus
	// the trap wiring. The runtime charges the matching per-comparison
	// cycle cost as machine.DefaultCost.GenCheckCycles. Off in the
	// paper's prototype (zero value), so Default is unchanged.
	Temporal bool
}

// Default is the paper's prototype configuration.
var Default = Config{
	BoundsRegs: 32, BoundsBits: 96,
	LocalOffset: true, Subheap: true, GlobalTable: true,
	LayoutWalk: true, MAC: true, ImplicitChk: true,
}

// Component is one row of the Figure 13 decomposition.
type Component struct {
	Name    string
	Stage   string // pipeline stage
	Vanilla int    // LUTs in the unmodified core
	Growth  int    // additional LUTs from In-Fat Pointer
}

// Area-model coefficients, calibrated so Default reproduces the paper's
// published numbers (see TestDefaultMatchesPaper).
const (
	lutPerBoundsRegBit = 2 // register file + operand forwarding, per bit
	issueWbPort        = 286
	lsuPerBoundsBit    = 30 // widened buffers + bounds ld/st datapath
	lsuPerCheckBit     = 13 // implicit access-size comparators (2x48-bit)

	walkerStateMachine = 800
	walkerDivider      = 1500
	walkerDatapath     = 759

	schemeLocalLUTs   = 600
	schemeSubheapLUTs = 1101 // includes the slot divider
	schemeGlobalLUTs  = 800

	macUnitLUTs    = 1900
	ifpControlLUTs = 973

	// Generation comparator: a 12-bit equality compare against the tag
	// field, the generation-store read port mux, and trap generation.
	genCompareLUTs = 210

	plumbingLUTs = 1283 // decode, CSRs, perf counters, cache bandwidth
)

// Vanilla per-component baselines (approximate split of the 37,088 total,
// following the Figure 13 stage breakdown).
var vanillaSplit = []Component{
	{Name: "Cache", Stage: "memory", Vanilla: 4201},
	{Name: "RegFiles, etc", Stage: "issue", Vanilla: 6246},
	{Name: "Scoreboard", Stage: "issue", Vanilla: 2500},
	{Name: "LSU", Stage: "execute", Vanilla: 3913},
	{Name: "ALU/Other Execute", Stage: "execute", Vanilla: 9028},
	{Name: "IFP Unit", Stage: "execute", Vanilla: 0},
	{Name: "Frontend/Decode/Other", Stage: "other", Vanilla: 11200},
}

// Model computes the component table for a configuration.
func Model(cfg Config) []Component {
	comps := make([]Component, len(vanillaSplit))
	copy(comps, vanillaSplit)
	for i := range comps {
		switch comps[i].Name {
		case "Cache":
			// Data-bandwidth widening for metadata fetches.
			if anyScheme(cfg) {
				comps[i].Growth = 814
			}
		case "RegFiles, etc":
			comps[i].Growth = cfg.BoundsRegs*cfg.BoundsBits*lutPerBoundsRegBit + issueWbPort
			if cfg.BoundsRegs == 0 {
				comps[i].Growth = 0
			}
		case "Scoreboard":
			if cfg.BoundsRegs > 0 {
				comps[i].Growth = cfg.BoundsRegs * 6
			}
		case "LSU":
			g := 0
			if cfg.BoundsRegs > 0 {
				g += cfg.BoundsBits * lsuPerBoundsBit
			}
			if cfg.ImplicitChk {
				g += 2 * 48 * lsuPerCheckBit
			}
			comps[i].Growth = g
		case "IFP Unit":
			comps[i].Growth = ifpUnit(cfg)
		case "Frontend/Decode/Other":
			if anyScheme(cfg) {
				comps[i].Growth = plumbingLUTs
			}
		}
	}
	return comps
}

func anyScheme(cfg Config) bool { return cfg.LocalOffset || cfg.Subheap || cfg.GlobalTable }

// ifpUnit computes the IFP execution unit's LUTs.
func ifpUnit(cfg Config) int {
	total := 0
	if cfg.LayoutWalk {
		total += walkerStateMachine + walkerDivider + walkerDatapath
	}
	if cfg.LocalOffset {
		total += schemeLocalLUTs
	}
	if cfg.Subheap {
		total += schemeSubheapLUTs
	}
	if cfg.GlobalTable {
		total += schemeGlobalLUTs
	}
	if cfg.MAC {
		total += macUnitLUTs
	}
	if cfg.Temporal {
		total += genCompareLUTs
	}
	if anyScheme(cfg) {
		total += ifpControlLUTs
	}
	return total
}

// WalkerLUTs is the layout-table walker's area (§5.3: 3,059 LUTs, 36% of
// the IFP unit).
func WalkerLUTs() int { return walkerStateMachine + walkerDivider + walkerDatapath }

// SchemesLUTs is the three metadata schemes' combined area (§5.3: 2,501).
func SchemesLUTs() int { return schemeLocalLUTs + schemeSubheapLUTs + schemeGlobalLUTs }

// Totals sums a component table.
func Totals(comps []Component) (vanilla, modified int) {
	for _, c := range comps {
		vanilla += c.Vanilla
		modified += c.Vanilla + c.Growth
	}
	return vanilla, modified
}

// Fig13 renders the Figure 13 decomposition for a configuration.
func Fig13(cfg Config) string {
	comps := Model(cfg)
	var t stats.Table
	t.Add("Component", "Stage", "Vanilla", "Growth", "Total")
	for _, c := range comps {
		t.Add(c.Name, c.Stage,
			fmt.Sprint(c.Vanilla), fmt.Sprintf("+%d", c.Growth), fmt.Sprint(c.Vanilla+c.Growth))
	}
	van, mod := Totals(comps)
	var b strings.Builder
	b.WriteString("Figure 13: LUT Increase in the Modified Processor\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "total: %d -> %d LUTs (%+.0f%%)\n", van, mod,
		100*float64(mod-van)/float64(van))
	if cfg == Default {
		fmt.Fprintf(&b, "paper: %d -> %d LUTs (+60%%); FFs %d -> %d (+48%%)\n",
			VanillaLUTs, ModifiedLUTs, VanillaFFs, ModifiedFFs)
		fmt.Fprintf(&b, "IFP unit internals: layout walker %d LUTs (%.0f%%), schemes %d LUTs (%.0f%%)\n",
			WalkerLUTs(), 100*float64(WalkerLUTs())/float64(ifpUnit(cfg)),
			SchemesLUTs(), 100*float64(SchemesLUTs())/float64(ifpUnit(cfg)))
	}
	return b.String()
}

// Ablations renders the §5.3 trade-off table: area saved by dropping each
// optional block.
func Ablations() string {
	base := Default
	_, full := Totals(Model(base))
	var t stats.Table
	t.Add("Ablation", "Modified LUTs", "Saved", "Cost/consequence")
	rows := []struct {
		name string
		mut  func(Config) Config
		note string
	}{
		{"full design", func(c Config) Config { return c }, "-"},
		{"no layout walker", func(c Config) Config { c.LayoutWalk = false; return c },
			"object-granularity promote only; app-level ifpbnd narrowing needed"},
		{"no bounds registers", func(c Config) Config { c.BoundsRegs = 0; c.ImplicitChk = false; return c },
			"explicit ifpchk everywhere; no implicit checking"},
		{"no MAC", func(c Config) Config { c.MAC = false; return c },
			"metadata tamper detection lost"},
		{"subheap scheme only", func(c Config) Config {
			c.LocalOffset, c.GlobalTable = false, false
			return c
		}, "heap-only protection"},
		{"no subheap scheme", func(c Config) Config { c.Subheap = false; return c },
			"per-object metadata for every heap object"},
		{"add temporal generation tagging", func(c Config) Config { c.Temporal = true; return c },
			"UAF/double-free detection; subobject index displaced (no extra tag bits)"},
	}
	for _, r := range rows {
		_, mod := Totals(Model(r.mut(base)))
		t.Add(r.name, fmt.Sprint(mod), fmt.Sprint(full-mod), r.note)
	}
	return "Hardware ablations (Section 5.3 trade-offs)\n" + t.String()
}

package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"infat/internal/rt"
	"infat/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/modelled_state.golden")

// modelledState runs one cell like runOne and renders everything the
// simulator models about it at full precision: every Counters field, the
// L1D statistics, the runtime's object statistics, the footprint and the
// checksum. The rendered report rounds most of these (SI counts, two-
// decimal ratios), so a change to the simulator that shifts one count by
// a few can leave the report digest intact; this rendering cannot.
func modelledState(w workloads.Workload, c Config, scale int, untimed bool) (string, error) {
	r := c.acquire()
	defer rt.Release(r)
	r.M.Untimed = untimed
	sum, err := w.Run(r, scale)
	if err != nil {
		return "", err
	}
	l1d := r.M.L1D.Stats()
	return fmt.Sprintf("counters %+v\nl1d accesses=%d misses=%d writebacks=%d\nstats %+v\nfootprint %d checksum %#x\n",
		r.M.C, l1d.Accesses, l1d.Misses, l1d.Writebacks, r.Stats, r.Footprint(), sum), nil
}

// TestModelledStateGolden pins the modelled state of the report campaign
// cell by cell: each workload in the five spatial configurations plus
// ifp-temporal, timed at scale 1, and each Figure-12 memory cell,
// untimed at scale 1 × MemScale on the full access path. The golden is
// the oracle for the footprint-only path memory cells take: each memory
// cell's Plan.ComputeCell footprint must equal the one its block
// records. It then appends every cell of the
// scale-1 chaos campaign, run in plan order on the same pooled runtimes,
// as its bucket and detail: those pin MAC detection (a swapped key must
// still be caught after the pool has recycled a machine) and every other
// fault's outcome exactly. Last come the cells the -ablations, -asic and
// -hybrid sections add to the report campaign, timed at scale 1. A
// host-side change to the access path (TLB,
// cache probes, batched metadata reads, MAC memoization) must leave every
// line identical; rewrite the file with -update only for a change that is
// meant to alter the modelled machine.
func TestModelledStateGolden(t *testing.T) {
	p := NewReportPlan(workloads.All, 1, MemScale)
	p.cfgs = TemporalPlan(workloads.All, 1).cfgs // the five report configurations, then ifp-temporal
	var b strings.Builder
	for i := 0; i < p.NumCells(); i++ {
		w, c, scale, perf := p.cellSpec(i)
		s, err := modelledState(w, c, scale, !perf)
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, p.Key(i), err)
		}
		fmt.Fprintf(&b, "== %s scale %d\n%s", p.Key(i), scale, s)
		if !perf {
			c, err := p.ComputeCell(i)
			if err != nil {
				t.Fatalf("cell %d (%s): %v", i, p.Key(i), err)
			}
			if rec := fmt.Sprintf("\nfootprint %d checksum ", c.Footprint); !strings.Contains(s, rec) {
				t.Errorf("cell %d (%s): Plan.ComputeCell footprint %d is not the one its block records:\n%s", i, p.Key(i), c.Footprint, s)
			}
		}
	}
	cp := NewChaosPlan(1)
	for i := 0; i < cp.NumCells(); i++ {
		o, _ := cp.ComputeCell(i)
		fmt.Fprintf(&b, "== %s\nbucket %s detail %q\n", cp.Key(i), o.Bucket, o.Detail)
	}
	// The cells the -ablations, -asic and -hybrid sections run beyond the
	// report campaign, timed at scale 1: each ablation knob on subheap,
	// each ASIC cost point other than the default, and hybrid.
	for _, sp := range []Plan{AblationPlan(1), ASICPlan(1), HybridPlan(1)} {
		for i := 0; i < sp.NumCells(); i++ {
			w, c, scale, _ := sp.cellSpec(i)
			if slices.Contains(reportConfigs, c) {
				continue
			}
			s, err := modelledState(w, c, scale, false)
			if err != nil {
				t.Fatalf("cell %d (%s): %v", i, sp.Key(i), err)
			}
			fmt.Fprintf(&b, "== %s scale %d\n%s", sp.Key(i), scale, s)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "modelled_state.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ModelledStateGolden -update ./internal/exp` to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	cell := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "== ") {
			cell = w
		}
		if g != w {
			t.Fatalf("modelled state drifted from the golden file at line %d (%s)\ngot:  %s\nwant: %s\n(run with -update only if the modelled machine is meant to change)",
				i+1, cell, g, w)
		}
	}
}

package exp

import (
	"strings"
	"testing"

	"infat/internal/workloads"
)

// temporalTestWorkloads keeps the temporal tests fast: two workloads are
// enough to exercise enumeration, assembly, and reporting.
func temporalTestWorkloads() []workloads.Workload { return workloads.All[:2] }

// TestTemporalPlanSpatialPrefixIdentity pins the enumeration contract:
// per workload, a temporal plan runs the five spatial configurations in
// the spatial plan's exact order (same metadata, same position-
// independent keys) and appends ifp-temporal sixth, while a plan without
// the flag enumerates exactly as before the temporal axis existed.
func TestTemporalPlanSpatialPrefixIdentity(t *testing.T) {
	ws := temporalTestWorkloads()
	sp := NewPlan(ws, 1)
	tp := NewPlan(ws, 1).WithTemporal(true)

	if sp.NumCells() != len(ws)*5 {
		t.Fatalf("spatial plan cells = %d, want %d (enumeration changed)", sp.NumCells(), len(ws)*5)
	}
	if tp.NumCells() != len(ws)*6 {
		t.Fatalf("temporal plan cells = %d, want %d", tp.NumCells(), len(ws)*6)
	}

	// Per workload, the temporal plan runs the five spatial configs in the
	// same order, then ifp-temporal.
	for wi := range ws {
		for ci := 0; ci < 5; ci++ {
			sm, tm := sp.Meta(wi*5+ci), tp.Meta(wi*6+ci)
			if sm.Workload != tm.Workload || sm.Config != tm.Config {
				t.Errorf("cell (%d,%d): spatial %v vs temporal %v", wi, ci, sm, tm)
			}
			if sp.Key(wi*5+ci) != tp.Key(wi*6+ci) {
				t.Errorf("cell (%d,%d): key mismatch %q vs %q",
					wi, ci, sp.Key(wi*5+ci), tp.Key(wi*6+ci))
			}
		}
		m := tp.Meta(wi*6 + 5)
		if m.Config != "ifp-temporal" || m.Kind != CellPerf {
			t.Errorf("workload %d sixth cell = %v, want ifp-temporal perf cell", wi, m)
		}
	}
}

// TestTemporalAssemblyEquivalence: running a temporal plan's cells in
// reverse order and assembling must verify (including the ifp-temporal
// checksum against baseline) and render the spatial perf report followed
// by the temporal section.
func TestTemporalAssemblyEquivalence(t *testing.T) {
	p := NewPlan(temporalTestWorkloads(), 1).WithTemporal(true)
	a := p.NewAssembly()
	for i := p.NumCells() - 1; i >= 0; i-- {
		c, err := p.ComputeCell(i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if err := a.Add(i, c); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	cells, err := a.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	results, _, err := p.Results(cells)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	for _, r := range results {
		if r.Temporal.Counters.Instrs == 0 {
			t.Errorf("%s: temporal slot empty after assembly", r.Name)
		}
		if r.Temporal.Checksum != r.Baseline.Checksum {
			t.Errorf("%s: temporal checksum %#x != baseline %#x",
				r.Name, r.Temporal.Checksum, r.Baseline.Checksum)
		}
	}
	rep, err := a.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	spatial := PerfReport(results)
	if !strings.HasPrefix(rep, spatial) {
		t.Error("temporal report does not start with the byte-identical spatial report")
	}
	if !strings.Contains(rep, "Temporal axis") {
		t.Error("temporal report missing the temporal section")
	}
}

// TestSpatialAssemblyUnchangedByTemporalField: a default (spatial) plan's
// assembled report must not mention the temporal axis and must leave the
// Temporal slot zero — the new Result field cannot perturb existing
// campaigns.
func TestSpatialAssemblyUnchangedByTemporalField(t *testing.T) {
	p := NewPlan(temporalTestWorkloads(), 1)
	a := p.NewAssembly()
	for i := 0; i < p.NumCells(); i++ {
		c, err := p.ComputeCell(i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if err := a.Add(i, c); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	cells, err := a.Cells()
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	results, _, err := p.Results(cells)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	for _, r := range results {
		if r.Temporal != (ModeResult{}) {
			t.Errorf("%s: spatial plan populated the temporal slot: %+v", r.Name, r.Temporal)
		}
	}
	rep, err := a.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if strings.Contains(rep, "Temporal axis") || strings.Contains(rep, "ifp-temporal") {
		t.Error("spatial report mentions the temporal axis")
	}
	if rep != PerfReport(results) {
		t.Error("spatial assembly report != PerfReport (bytes changed)")
	}
}

// TestTemporalReportDeterministic: the temporal campaign renders
// byte-identically at any worker count, and the detection table shows the
// generation mode catching everything the spatial mode misses.
func TestTemporalReportDeterministic(t *testing.T) {
	report := func(workers int) string {
		rep, err := RunReport(TemporalPlan(1), workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return rep + "\n" + TemporalDetection(workers)
	}
	serial, par := report(1), report(4)
	if serial != par {
		t.Error("temporal report differs across worker counts")
	}
	if !strings.Contains(serial, "ifp-temporal") || !strings.Contains(serial, "CWE-415/416") {
		t.Errorf("report missing sections:\n%s", serial)
	}
}

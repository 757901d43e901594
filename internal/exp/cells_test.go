package exp

import (
	"errors"
	"strings"
	"testing"

	"infat/internal/chaos"
	"infat/internal/pool"
	"infat/internal/workloads"
)

// cellTestWorkloads is a small representative subset so the cell
// equivalence tests stay fast under -race.
func cellTestWorkloads(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range []string{"treeadd", "health", "ks"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestPlanCellEnumeration pins the enumeration contract: perf cells
// first in (workload, config) order, then mem cells in (workload, mode)
// order, with stable keys.
func TestPlanCellEnumeration(t *testing.T) {
	ws := cellTestWorkloads(t)
	p := NewReportPlan(ws, 1, MemScale)
	wantCells := len(ws)*len(p.cfgs) + len(ws)*len(memModes)
	if got := p.NumCells(); got != wantCells {
		t.Fatalf("NumCells = %d, want %d", got, wantCells)
	}
	m0 := p.Meta(0)
	if m0.Kind != CellPerf || m0.Workload != "treeadd" || m0.Config != "baseline" || m0.Seq != 0 {
		t.Errorf("Meta(0) = %+v", m0)
	}
	mLast := p.Meta(p.NumCells() - 1)
	if mLast.Kind != CellMem || mLast.Workload != "ks" || mLast.Config != "wrapped" {
		t.Errorf("Meta(last) = %+v", mLast)
	}
	if got := p.Key(0); got != "perf|treeadd|baseline" {
		t.Errorf("Key(0) = %q", got)
	}
	// Keys are position-independent: the same cell in a differently
	// ordered plan has the same key.
	rev := NewReportPlan([]workloads.Workload{ws[2], ws[1], ws[0]}, 1, MemScale)
	if p.Key(0) != rev.Key(2*len(p.cfgs)) {
		t.Errorf("treeadd/baseline key differs across plans: %q vs %q",
			p.Key(0), rev.Key(2*len(p.cfgs)))
	}
	// All keys distinct within a plan.
	seen := map[string]bool{}
	for i := 0; i < p.NumCells(); i++ {
		k := p.Key(i)
		if seen[k] {
			t.Errorf("duplicate cell key %q", k)
		}
		seen[k] = true
	}
}

// TestCellScale pins each cell kind's effective scale: the perf scale for
// perf cells, scale×memScale for memory cells, 1 for every chaos cell.
func TestCellScale(t *testing.T) {
	ws := cellTestWorkloads(t)
	for _, p := range []Plan{NewReportPlan(ws, 2, 3), TemporalPlan(ws, 2)} {
		for i := 0; i < p.NumCells(); i++ {
			want := 2
			if p.Meta(i).Kind == CellMem {
				want = 6
			}
			if got := p.CellScale(i); got != want {
				t.Errorf("%+v: CellScale = %d, want %d", p.Meta(i), got, want)
			}
		}
	}
	c := NewChaosPlan(3)
	for i := 0; i < c.NumCells(); i++ {
		if got := c.CellScale(i); got != 1 {
			t.Fatalf("chaos cell %d: CellScale = %d, want 1", i, got)
		}
	}
}

// TestAssemblyReportEquivalence is the core reassembly contract: running
// every cell independently (in parallel, added out of order) and
// assembling reproduces RunSet+RunMemSet byte-for-byte.
func TestAssemblyReportEquivalence(t *testing.T) {
	ws := cellTestWorkloads(t)
	p := NewReportPlan(ws, 1, MemScale)

	serialResults, err := RunSet(ws, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialMem, err := RunMemSet(ws, MemScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Report(serialResults, serialMem)

	a := p.NewAssembly()
	if err := pool.Map(0, p.NumCells(), func(i int) error {
		c, err := p.ComputeCell(i)
		if err != nil {
			return err
		}
		return a.Add(i, c)
	}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("assembled report differs from serial run:\n--- assembled ---\n%s\n--- serial ---\n%s", got, want)
	}

	// Perf-only plans reassemble to PerfReport.
	gp := NewPlan(ws, 1)
	ga := gp.NewAssembly()
	if err := pool.Map(0, gp.NumCells(), func(i int) error {
		c, err := gp.ComputeCell(i)
		if err != nil {
			return err
		}
		return ga.Add(i, c)
	}); err != nil {
		t.Fatal(err)
	}
	gotPerf, err := ga.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want := PerfReport(serialResults); gotPerf != want {
		t.Fatal("perf-only assembled report differs from serial run")
	}
}

// TestAssemblyValidation covers the failure modes a streaming consumer
// can feed an assembly: out-of-range and duplicate sequence numbers,
// missing payloads, and incomplete assemblies.
func TestAssemblyValidation(t *testing.T) {
	ws := cellTestWorkloads(t)
	p := NewPlan(ws, 1)
	a := p.NewAssembly()
	if err := a.Add(-1, CellResult{}); err == nil {
		t.Error("Add(-1) accepted")
	}
	if err := a.Add(p.NumCells(), CellResult{}); err == nil {
		t.Error("Add(out of range) accepted")
	}
	if err := a.Add(0, CellResult{}); err == nil {
		t.Error("perf cell without perf payload accepted")
	}
	c, err := p.ComputeCell(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(0, c); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(0, c); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate Add error = %v", err)
	}
	if missing := a.Missing(); len(missing) != p.NumCells()-1 || missing[0] != 1 {
		t.Errorf("Missing() = %v", missing)
	}
	if _, err := a.Report(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete Report error = %v", err)
	}
}

// TestAddCheckedCellContract pins the trust boundary a streaming
// consumer relies on: AddChecked must reject any cell whose identity or
// payload shape disagrees with the plan's own enumeration, as a typed
// ErrCorruptCell — and a repeated valid cell as ErrDuplicateCell, never
// the other sentinel.
func TestAddCheckedCellContract(t *testing.T) {
	ws := cellTestWorkloads(t)
	p := NewReportPlan(ws, 1, MemScale)
	a := p.NewAssembly()
	perf := CellResult{Perf: &ModeResult{}}

	// Out-of-campaign sequence numbers, positive and negative.
	for _, seq := range []int{-1, p.NumCells(), p.NumCells() + 100000} {
		err := a.AddChecked(CellMeta{Seq: seq, Kind: CellPerf}, perf)
		if !errors.Is(err, ErrCorruptCell) {
			t.Errorf("alien seq %d: err = %v, want ErrCorruptCell", seq, err)
		}
	}

	// Identity that disagrees with the plan's enumeration at that seq:
	// wrong kind, wrong workload, wrong config — each must be corrupt.
	good := p.Meta(0)
	for name, m := range map[string]CellMeta{
		"kind":     {Seq: 0, Kind: CellMem, Workload: good.Workload, Config: good.Config},
		"workload": {Seq: 0, Kind: good.Kind, Workload: "alien", Config: good.Config},
		"config":   {Seq: 0, Kind: good.Kind, Workload: good.Workload, Config: "alien"},
	} {
		if err := a.AddChecked(m, perf); !errors.Is(err, ErrCorruptCell) {
			t.Errorf("mismatched %s: err = %v, want ErrCorruptCell", name, err)
		}
	}

	// Payload shape: a perf cell without a perf result, a perf cell
	// smuggling a footprint, a mem cell smuggling a perf result.
	memMeta := p.Meta(p.NumCells() - 1)
	for name, bad := range map[string]struct {
		m CellMeta
		c CellResult
	}{
		"perf cell missing perf":     {good, CellResult{}},
		"perf cell with footprint":   {good, CellResult{Perf: &ModeResult{}, Footprint: 7}},
		"mem cell with perf payload": {memMeta, perf},
	} {
		if err := a.AddChecked(bad.m, bad.c); !errors.Is(err, ErrCorruptCell) {
			t.Errorf("%s: err = %v, want ErrCorruptCell", name, err)
		}
	}

	// Nothing above may have landed in a slot.
	if n := len(a.Missing()); n != p.NumCells() {
		t.Fatalf("rejected cells filled slots: %d missing, want %d", n, p.NumCells())
	}

	// A valid cell passes; its repeat is a duplicate, not a corruption,
	// and the two sentinels stay distinct.
	if err := a.AddChecked(good, perf); err != nil {
		t.Fatalf("valid AddChecked: %v", err)
	}
	err := a.AddChecked(good, perf)
	if !errors.Is(err, ErrDuplicateCell) {
		t.Fatalf("repeat AddChecked err = %v, want ErrDuplicateCell", err)
	}
	if errors.Is(err, ErrCorruptCell) {
		t.Error("duplicate also matches ErrCorruptCell: sentinels not distinct")
	}
	var cerr *cellContractError
	if !errors.As(err, &cerr) || cerr.Seq() != good.Seq {
		t.Errorf("contract error seq = %v, want %d", err, good.Seq)
	}
}

// TestChaosAddCheckedOutcomeCoordinates: a chaos cell whose outcome's
// own (scheme, fault, seed) disagrees with the plan slot is corrupt —
// a hostile backend cannot smuggle one cell's outcome into another's
// slot even with a perfectly matching envelope.
func TestChaosAddCheckedOutcomeCoordinates(t *testing.T) {
	p := NewChaosPlan(1)
	a := NewAssembly(p)
	s, f, seed := p.coords(0)
	good := chaos.Outcome{Scheme: s, Fault: f, Seed: seed}

	if err := a.AddChecked(CellMeta{Seq: p.NumCells() + 100000, Kind: CellChaos}, good); !errors.Is(err, ErrCorruptCell) {
		t.Errorf("alien seq: err = %v, want ErrCorruptCell", err)
	}
	m := p.Meta(0)
	if err := a.AddChecked(CellMeta{Seq: 0, Kind: CellChaos, Workload: "alien", Config: m.Config}, good); !errors.Is(err, ErrCorruptCell) {
		t.Errorf("mismatched envelope: err = %v, want ErrCorruptCell", err)
	}
	// Envelope matches the plan, outcome coordinates do not.
	for name, o := range map[string]chaos.Outcome{
		"scheme": {Scheme: s + 1, Fault: f, Seed: seed},
		"fault":  {Scheme: s, Fault: f + 1, Seed: seed},
		"seed":   {Scheme: s, Fault: f, Seed: seed + 1},
	} {
		if err := a.AddChecked(m, o); !errors.Is(err, ErrCorruptCell) {
			t.Errorf("smuggled %s: err = %v, want ErrCorruptCell", name, err)
		}
	}
	if err := a.AddChecked(m, good); err != nil {
		t.Fatalf("valid chaos AddChecked: %v", err)
	}
	if err := a.AddChecked(m, good); !errors.Is(err, ErrDuplicateCell) {
		t.Fatalf("repeat chaos AddChecked err = %v, want ErrDuplicateCell", err)
	}
}

// TestChaosAssemblyEquivalence: the chaos plan's cells assemble to the
// same report as the serial campaign.
func TestChaosAssemblyEquivalence(t *testing.T) {
	p := NewChaosPlan(1)
	if got, want := p.NumCells(), len(chaos.Schemes)*len(chaos.Faults)*ChaosSeedsPerCell; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	a := NewAssembly(p)
	if err := pool.Map(0, p.NumCells(), func(i int) error {
		o, _ := p.ComputeCell(i)
		return a.Add(i, o)
	}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ChaosReport(1, 1); got != want {
		t.Fatal("assembled chaos report differs from serial campaign")
	}
}

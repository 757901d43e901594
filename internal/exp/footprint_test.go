package exp

import (
	"testing"

	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// TestUntimedMatchesTimed: an untimed run — the Figure-12 memory-cell
// path — must reproduce the timed run of the same cell except for the
// cycles and misses the L1D model charges: equal counters once Cycles is
// zeroed, and identical footprint, checksum and runtime stats. It covers
// every workload in every memory mode plus ifp-temporal. The untimed run
// goes first on a drained pool and the timed run reuses its runtime, so a
// Reset that kept the untimed state shows up as a timed run without L1D
// misses.
func TestUntimedMatchesTimed(t *testing.T) {
	defer rt.SetReuseSystems(rt.ReuseSystems())
	rt.SetReuseSystems(true)
	rt.DefaultPool.Drain()
	for _, w := range workloads.All {
		for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped, rt.IFPTemporal} {
			untimed, err := runOne(w, mode, false, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runOne(w, mode, false, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if untimed.L1DMisses != 0 {
				t.Errorf("%s/%v: untimed run recorded %d L1D misses", w.Name, mode, untimed.L1DMisses)
			}
			if timed.L1DMisses == 0 || timed.Counters.Cycles <= untimed.Counters.Cycles {
				t.Errorf("%s/%v: timed run after an untimed one charged no misses (%d misses, %d vs %d cycles)",
					w.Name, mode, timed.L1DMisses, timed.Counters.Cycles, untimed.Counters.Cycles)
			}
			untimed.Counters.Cycles, timed.Counters.Cycles = 0, 0
			untimed.L1DMisses, timed.L1DMisses = 0, 0
			if untimed != timed {
				t.Errorf("%s/%v: untimed run differs beyond the L1D\nuntimed: %+v\ntimed:   %+v",
					w.Name, mode, untimed, timed)
			}
		}
	}
}

// TestMemoReportPlanLookups: a memoized report plan does exactly one
// store lookup per cell, so a cold pass records NumCells misses and a
// warm pass NumCells hits, memory cells included.
func TestMemoReportPlanLookups(t *testing.T) {
	store := memo.NewStore(0)
	p := NewReportPlan(workloads.All[:2], 1, MemScale).WithMemo(store)
	n := uint64(p.NumCells())
	runPlanReport(t, p, 1)
	if st := store.Stats(); st.Misses != n || st.Hits != 0 {
		t.Fatalf("cold pass: %d misses and %d hits, want %d and 0", st.Misses, st.Hits, n)
	}
	runPlanReport(t, p, 1)
	if st := store.Stats(); st.Misses != n || st.Hits != n {
		t.Fatalf("warm pass: %d misses and %d hits in total, want %d and %d", st.Misses, st.Hits, n, n)
	}
}

// TestMemoFootprintIsolation: memory cells publish only into the
// footprint domain. After a memoized report plan, a perf lookup at a
// memory cell's coordinates (workload, mode, scale*memScale) must miss:
// an untimed result never answers a perf cell or /v1/workload. The
// memory cells themselves stay warm for the ifp-bench -fig12 path.
func TestMemoFootprintIsolation(t *testing.T) {
	ws := workloads.All[:2]
	store := memo.NewStore(0)
	p := NewReportPlan(ws, 1, MemScale).WithMemo(store)
	runPlanReport(t, p, 1)
	scale := p.Scale() * p.MemScale()
	for _, w := range ws {
		for _, m := range memModes {
			if _, ok := LookupOne(store, w, m.mode, false, scale); ok {
				t.Errorf("%s/%v: perf lookup at scale %d hit a memory cell's entry", w.Name, m.mode, scale)
			}
		}
	}
	hits := store.Stats().Hits
	if _, err := RunCampaign(NewMemPlan(ws, scale).WithMemo(store), 1); err != nil {
		t.Fatal(err)
	}
	if got, want := store.Stats().Hits-hits, uint64(len(ws)*len(memModes)); got != want {
		t.Fatalf("footprint pass after the plan hit %d cells, want %d", got, want)
	}
}

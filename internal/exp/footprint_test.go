package exp

import (
	"testing"

	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// runUntimed runs a cell on the full access path with the L1D model
// skipped (machine.Machine.Untimed): how memory cells ran before the
// footprint-only path, and how TestModelledStateGolden still renders
// them.
func runUntimed(w workloads.Workload, mode rt.Mode, scale int) (ModeResult, error) {
	r := rt.Acquire(mode)
	defer rt.Release(r)
	r.M.Untimed = true
	sum, err := w.Run(r, scale)
	if err != nil {
		return ModeResult{}, err
	}
	return ModeResult{Counters: r.M.C, Stats: r.Stats, Footprint: r.Footprint(),
		Checksum: sum, L1DMisses: r.M.L1D.Stats().Misses}, nil
}

// TestUntimedMatchesTimed: an untimed run must reproduce the timed run
// of the same cell except for the cycles and misses the L1D model
// charges: equal counters once Cycles is zeroed, and identical footprint,
// checksum and runtime stats. It covers every workload in every memory
// mode plus ifp-temporal. The untimed run goes first on a drained pool
// and the timed run reuses its runtime, so a Reset that kept the untimed
// state shows up as a timed run without L1D misses.
func TestUntimedMatchesTimed(t *testing.T) {
	defer rt.SetReuseSystems(rt.ReuseSystems())
	rt.SetReuseSystems(true)
	rt.DefaultPool.Drain()
	for _, w := range workloads.All {
		for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped, rt.IFPTemporal} {
			untimed, err := runUntimed(w, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runOne(w, ModeConfig(mode, false), 1, false)
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

// checkFootprintPath runs every report workload in each mode at each
// effective scale twice — on the full untimed path and on the
// footprint-only path memory cells take — and requires the same
// footprint, checksum and runtime stats. The footprint-only run goes
// first and the full run reuses its runtime, so a Reset that kept the
// footprint-only access semantics shows up as a full run without
// promotes.
func checkFootprintPath(t *testing.T, modes []rt.Mode, scales []int) {
	defer rt.SetReuseSystems(rt.ReuseSystems())
	rt.SetReuseSystems(true)
	rt.DefaultPool.Drain()
	for _, scale := range scales {
		for _, w := range workloads.All {
			for _, mode := range modes {
				fast, err := runOne(w, ModeConfig(mode, false), scale, true)
				if err != nil {
					t.Fatal(err)
				}
				full, err := runUntimed(w, mode, scale)
				if err != nil {
					t.Fatal(err)
				}
				if mode != rt.Baseline && full.Counters.Promote == 0 {
					t.Errorf("%s/%v scale %d: full run after a footprint-only one issued no promote", w.Name, mode, scale)
				}
				if fast.Footprint != full.Footprint || fast.Checksum != full.Checksum || fast.Stats != full.Stats {
					t.Errorf("%s/%v scale %d: footprint-only path differs from the full path\nfootprint-only: footprint %d checksum %#x stats %+v\nfull:           footprint %d checksum %#x stats %+v",
						w.Name, mode, scale, fast.Footprint, fast.Checksum, fast.Stats, full.Footprint, full.Checksum, full.Stats)
				}
			}
		}
	}
}

// TestFootprintPathExact: the footprint-only path reproduces the full
// path's footprint, checksum and stats for every report workload in the
// three memory modes at effective scales 1–4, and in hybrid and
// ifp-temporal at scale 1.
func TestFootprintPathExact(t *testing.T) {
	checkFootprintPath(t, []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped}, []int{1, 2, 3, 4})
	checkFootprintPath(t, []rt.Mode{rt.Hybrid, rt.IFPTemporal}, []int{1})
}

// TestFootprintPathExactLargeScales extends TestFootprintPathExact to
// effective scales 8 and 16 (16 = server.MaxScale × MemScale, the largest
// a /v1/batch memory cell runs at). It takes about 25 s, so the race
// detector's run skips it and CI runs it in a step of its own.
func TestFootprintPathExactLargeScales(t *testing.T) {
	if raceEnabled {
		t.Skip("about 25 s without the race detector; CI runs it in its own step")
	}
	checkFootprintPath(t, []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped}, []int{8, 16})
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
// an untimed result never answers a perf cell. The
// memory cells themselves stay warm for the ifp-bench -fig12 path.
func TestMemoFootprintIsolation(t *testing.T) {
	ws := workloads.All[:2]
	store := memo.NewStore(0)
	p := NewReportPlan(ws, 1, MemScale).WithMemo(store)
	runPlanReport(t, p, 1)
	scale := p.Scale() * p.MemScale()
	for _, w := range ws {
		for _, mode := range memModes {
			if _, ok := lookupOne(store, w, ModeConfig(mode, false), scale); ok {
				t.Errorf("%s/%v: perf lookup at scale %d hit a memory cell's entry", w.Name, mode, scale)
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

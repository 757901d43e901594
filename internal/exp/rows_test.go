package exp

import (
	"sync"
	"testing"

	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// recordBaseline records w's Baseline footprint-only run at scale.
func recordBaseline(t *testing.T, w workloads.Workload, scale int) (*rt.Recording, ModeResult) {
	t.Helper()
	r := rt.Acquire(rt.Baseline)
	defer rt.Release(r)
	var sum uint64
	rec, err := r.Record(func() error {
		var err error
		sum, err = w.Run(r, scale)
		return err
	})
	if err != nil {
		t.Fatalf("%s scale %d: recording: %v", w.Name, scale, err)
	}
	return rec, ModeResult{Stats: r.Stats, Footprint: r.Footprint(), Checksum: sum}
}

// replayed replays rec in mode and returns the footprint and stats.
func replayed(t *testing.T, rec *rt.Recording, mode rt.Mode) ModeResult {
	t.Helper()
	r := rt.Acquire(mode)
	defer rt.Release(r)
	if err := r.Replay(rec); err != nil {
		t.Fatalf("replay in %v: %v", mode, err)
	}
	return ModeResult{Stats: r.Stats, Footprint: r.Footprint()}
}

// checkReplay records every report workload's Baseline run at each
// effective scale and requires each mode's replay of it to give the
// footprint and runtime stats of the mode's full untimed run, and the
// recording run itself those of Baseline's.
func checkReplay(t *testing.T, modes []rt.Mode, scales []int) {
	for _, scale := range scales {
		for _, w := range workloads.All {
			rec, base := recordBaseline(t, w, scale)
			full, err := runUntimed(w, rt.Baseline, scale)
			if err != nil {
				t.Fatal(err)
			}
			if base.Footprint != full.Footprint || base.Stats != full.Stats || base.Checksum != full.Checksum {
				t.Errorf("%s scale %d: recording run differs from the full baseline run: footprint %d vs %d",
					w.Name, scale, base.Footprint, full.Footprint)
			}
			for _, mode := range modes {
				got := replayed(t, rec, mode)
				full, err := runUntimed(w, mode, scale)
				if err != nil {
					t.Fatal(err)
				}
				if got.Footprint != full.Footprint || got.Stats != full.Stats {
					t.Errorf("%s/%v scale %d: replay differs from the full path\nreplay: footprint %d stats %+v\nfull:   footprint %d stats %+v",
						w.Name, mode, scale, got.Footprint, got.Stats, full.Footprint, full.Stats)
				}
			}
		}
	}
}

// TestFootprintReplayExact: a replayed Baseline recording gives each
// mode's full-path footprint and runtime stats, for every report
// workload in subheap and wrapped at effective scales 1–4 and in hybrid
// and ifp-temporal at scale 1.
func TestFootprintReplayExact(t *testing.T) {
	checkReplay(t, []rt.Mode{rt.Subheap, rt.Wrapped}, []int{1, 2, 3, 4})
	checkReplay(t, []rt.Mode{rt.Hybrid, rt.IFPTemporal}, []int{1})
}

// TestFootprintReplayExactLargeScales extends TestFootprintReplayExact to
// effective scales 8 and 16, the largest a /v1/batch memory cell runs
// at. Like TestFootprintPathExactLargeScales, the race run skips it and
// CI runs it in a step of its own.
func TestFootprintReplayExactLargeScales(t *testing.T) {
	if raceEnabled {
		t.Skip("large scales run without the race detector, in their own CI step")
	}
	checkReplay(t, []rt.Mode{rt.Subheap, rt.Wrapped}, []int{8, 16})
}

// TestRowRecordingsPerPass: a serial pass over the report plan records
// each of its 18 rows once, and a second pass over the same plan records
// all 18 again, because every row entry is dropped when its cell takes
// it. Both passes give the report of a plan without rows.
func TestRowRecordingsPerPass(t *testing.T) {
	p := NewReportPlan(workloads.All, 1, MemScale)
	want := runPlanReport(t, withoutRows(p), 1)
	for pass := 1; pass <= 2; pass++ {
		if got := runPlanReport(t, p, 1); got != want {
			t.Fatalf("pass %d: report differs from computing every memory cell alone", pass)
		}
		if got := p.rows.recordings; got != 18*pass {
			t.Fatalf("after pass %d: %d recordings, want %d", pass, got, 18*pass)
		}
	}
	if n := len(p.rows.rows); n != 0 {
		t.Fatalf("%d rows left in the table after the last pass", n)
	}
}

// withoutRows is p with every memory cell computed alone.
func withoutRows(p Plan) Plan {
	p.rows = nil
	return p
}

// TestRowReportWorkers: the report plan's report is byte-identical at 1
// and 2 workers, where two rows record at once and their siblings take
// footprints from the shared table (CI runs it under the race detector).
func TestRowReportWorkers(t *testing.T) {
	ws := workloads.All[:6]
	serial := runPlanReport(t, NewReportPlan(ws, 1, MemScale), 1)
	p := NewReportPlan(ws, 1, MemScale)
	if got := runPlanReport(t, p, 2); got != serial {
		t.Fatal("report at 2 workers differs from the serial report")
	}
	if got := p.rows.recordings; got != len(ws) {
		t.Fatalf("%d recordings at 2 workers, want %d (one per row)", got, len(ws))
	}
}

// TestRowSelectionAndMemo: a memory cell records its row only for the
// siblings the plan will compute, in its cell selection and not
// memoized, and computes alone when there are none.
func TestRowSelectionAndMemo(t *testing.T) {
	w, _ := workloads.ByName("treeadd")
	ws := []workloads.Workload{w}
	mem := func(p Plan, mi int) int { return p.perfCells() + mi }
	fps := make([]uint64, len(memModes))
	for mi, mode := range memModes {
		fp, err := computeFootprint(nil, ws[0], mode, MemScale)
		if err != nil {
			t.Fatal(err)
		}
		fps[mi] = fp
	}
	check := func(p Plan, mi int) {
		t.Helper()
		c, err := p.ComputeCell(mem(p, mi))
		if err != nil {
			t.Fatal(err)
		}
		if c.Footprint != fps[mi] {
			t.Fatalf("%v cell: footprint %d, want %d", memModes[mi], c.Footprint, fps[mi])
		}
	}

	// A selection of the baseline and wrapped cells: the baseline cell's
	// recording replays wrapped only.
	p := NewReportPlan(ws, 1, MemScale)
	p = p.Select([]int{mem(p, 0), mem(p, 2)})
	check(p, 0)
	if rw := p.rows.rows[rowKey{ws[0].Name, MemScale}]; rw == nil || rw.have != [len(memModes)]bool{false, false, true} {
		t.Fatalf("after the baseline cell, row %+v, want only wrapped waiting", rw)
	}
	check(p, 2)
	if p.rows.recordings != 1 || len(p.rows.rows) != 0 {
		t.Fatalf("%d recordings and %d rows left, want 1 and 0", p.rows.recordings, len(p.rows.rows))
	}

	// A selection of one cell computes alone.
	p = NewReportPlan(ws, 1, MemScale)
	p = p.Select([]int{mem(p, 1)})
	check(p, 1)
	if p.rows.recordings != 0 {
		t.Fatalf("a lone cell recorded %d rows", p.rows.recordings)
	}

	// Memoized siblings are not replayed, and a sibling is published to
	// the store only by its own cell.
	store := memo.NewStore(0)
	p = NewReportPlan(ws, 1, MemScale).WithMemo(store)
	check(p, 1)
	if p.ProbeCell(mem(p, 0)) || p.ProbeCell(mem(p, 2)) {
		t.Fatal("a sibling reached the memo store before its own cell ran")
	}
	check(p, 0)
	check(p, 2)
	q := NewReportPlan(ws, 1, MemScale).WithMemo(store)
	if _, err := q.ComputeCell(mem(q, 2)); err != nil {
		t.Fatal(err)
	}
	if q.rows.recordings != 0 {
		t.Fatal("a cell whose siblings are memoized recorded its row")
	}
}

// TestRowSiblingsWait: a row's three memory cells computed at once
// record the row once, the siblings waiting on the recording, and each
// gets its own footprint (CI runs it under the race detector).
func TestRowSiblingsWait(t *testing.T) {
	w, _ := workloads.ByName("health")
	p := NewReportPlan([]workloads.Workload{w}, 1, MemScale)
	var got [len(memModes)]uint64
	var wg sync.WaitGroup
	for mi := range memModes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := p.ComputeCell(p.perfCells() + mi)
			if err != nil {
				t.Error(err)
			}
			got[mi] = c.Footprint
		}()
	}
	wg.Wait()
	for mi, mode := range memModes {
		want, err := computeFootprint(nil, w, mode, MemScale)
		if err != nil {
			t.Fatal(err)
		}
		if got[mi] != want {
			t.Errorf("%v cell: footprint %d, want %d", mode, got[mi], want)
		}
	}
	if p.rows.recordings != 1 || len(p.rows.rows) != 0 {
		t.Fatalf("%d recordings and %d rows left, want 1 and 0", p.rows.recordings, len(p.rows.rows))
	}
}

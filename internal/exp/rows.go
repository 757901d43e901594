package exp

// Figure-12 rows (DESIGN.md §12). A row is one workload's memory cells
// at one effective scale: its baseline, subheap and wrapped footprints.
// A workload requests the same objects and touches the same bytes of
// them in every mode, so a row needs one kernel run, not three: the cell
// that starts a row records its Baseline run (rt.Runtime.Record) and
// replays the recording through each sibling's own allocators
// (rt.Runtime.Replay), with no kernel run. The siblings' footprints wait
// in the plan's row table until their own cells take them.

import (
	"slices"
	"sync"

	"infat/internal/rt"
	"infat/internal/workloads"
)

// rowTable is a plan's Figure-12 row table, shared by every copy of the
// plan. An entry is dropped when its cell takes it, so a pass that
// computes every cell once leaves the table empty and the next pass
// records its rows again.
type rowTable struct {
	mu         sync.Mutex
	rows       map[rowKey]*row
	recordings int // rows recorded so far
}

// rowKey names a row: the workload and the effective scale.
type rowKey struct {
	workload string
	scale    int
}

// row is one recorded row. While busy, its recording is running and a
// sibling that arrives waits on done; after that, have marks the
// footprints still waiting for their cells.
type row struct {
	busy bool
	done chan struct{}
	fp   [len(memModes)]uint64
	have [len(memModes)]bool
}

func newRowTable() *rowTable { return &rowTable{rows: make(map[rowKey]*row)} }

// memFootprint is memory cell i's footprint, w in mode at scale. A cell
// whose footprint a sibling's recording left in the row table takes it.
// Otherwise, when the plan will compute a sibling too (one in its cell
// selection and not memoized), the cell records the row, stores the
// siblings' footprints and returns its own. A lone cell, and any cell
// whose recording or replay fails, runs computeFootprint, so it fails
// exactly as it did without rows. Every cell publishes only its own
// footprint, so a sibling is never served from the memo store ahead of
// its own cell.
func (p Plan) memFootprint(i int, w workloads.Workload, mode rt.Mode, scale int) (uint64, error) {
	t := p.rows
	if t == nil {
		return computeFootprint(p.memo, w, mode, scale)
	}
	mi := slices.Index(memModes[:], mode)
	first := i - mi // the row's baseline cell
	key := rowKey{w.Name, scale}

	t.mu.Lock()
	rw := t.rows[key]
	for rw != nil && rw.busy {
		done := rw.done
		t.mu.Unlock()
		<-done
		t.mu.Lock()
		rw = t.rows[key]
	}
	if rw != nil {
		ok := rw.have[mi]
		fp := rw.fp[mi]
		if ok {
			rw.have[mi] = false
			if rw.have == [len(memModes)]bool{} {
				delete(t.rows, key)
			}
		}
		t.mu.Unlock()
		if !ok {
			return computeFootprint(p.memo, w, mode, scale)
		}
		publishFootprint(p.memo, w, mode, scale, fp)
		return fp, nil
	}
	var want [len(memModes)]bool // the siblings this recording serves
	for mj := range memModes {
		want[mj] = mj != mi && p.selected(first+mj) && !p.ProbeCell(first+mj)
	}
	if want == [len(memModes)]bool{} {
		t.mu.Unlock()
		return computeFootprint(p.memo, w, mode, scale)
	}
	rw = &row{busy: true, done: make(chan struct{})}
	t.rows[key] = rw
	t.recordings++
	t.mu.Unlock()

	need := want
	need[mi] = true
	var fp [len(memModes)]uint64
	var ok [len(memModes)]bool
	func() {
		// Settle the row even if the run panics, so no sibling waits on
		// it forever.
		defer func() {
			t.mu.Lock()
			for mj := range memModes {
				if want[mj] && ok[mj] {
					rw.fp[mj], rw.have[mj] = fp[mj], true
				}
			}
			if rw.have == [len(memModes)]bool{} {
				delete(t.rows, key)
			}
			rw.busy = false
			close(rw.done)
			t.mu.Unlock()
		}()
		fp, ok = recordRow(w, scale, need)
	}()
	if !ok[mi] {
		return computeFootprint(p.memo, w, mode, scale)
	}
	publishFootprint(p.memo, w, mode, scale, fp[mi])
	return fp[mi], nil
}

// recordRow runs w at scale once, in Baseline on the footprint-only
// path, recording it, and replays the recording in every other memory
// mode need names. It returns each footprint it computed, ok set for
// it; a failed run or replay leaves its ok unset. The recording is
// released on return.
func recordRow(w workloads.Workload, scale int, need [len(memModes)]bool) (fp [len(memModes)]uint64, ok [len(memModes)]bool) {
	r := rt.Acquire(rt.Baseline)
	rec, err := r.Record(func() error {
		_, err := w.Run(r, scale)
		return err
	})
	fp[0], ok[0] = r.Footprint(), err == nil
	rt.Release(r)
	if err != nil {
		return fp, ok
	}
	defer rec.Release()
	for mj, mode := range memModes[1:] {
		if !need[mj+1] {
			continue
		}
		r := rt.Acquire(mode)
		if r.Replay(rec) == nil {
			fp[mj+1], ok[mj+1] = r.Footprint(), true
		}
		rt.Release(r)
	}
	return fp, ok
}

// dispatchOrder is the order RunCampaign starts the plan's cells in:
// the perf cells, then every row's baseline memory cell, then every
// subheap and every wrapped one. Each baseline cell records its row, so
// workers record different rows at once, and the siblings that follow
// find their footprints waiting instead of waiting on a recording.
func (p Plan) dispatchOrder() []int {
	order := make([]int, 0, p.NumCells())
	for i := 0; i < p.perfCells(); i++ {
		order = append(order, i)
	}
	for mi := range memModes {
		for wi := 0; wi < p.memCells()/len(memModes); wi++ {
			order = append(order, p.perfCells()+wi*len(memModes)+mi)
		}
	}
	return order
}

// selected reports whether cell i is in the plan's cell selection.
func (p Plan) selected(i int) bool { return p.sel == nil || p.sel[i] }

// Select returns a copy of the plan whose cell selection is cells: the
// cells it will be asked to compute, which a memory cell's recording
// replays for, and no others (an empty list selects every cell). The
// selection changes no cell's result; out-of-range numbers are ignored.
func (p Plan) Select(cells []int) Plan {
	if len(cells) == 0 {
		p.sel = nil
		return p
	}
	p.sel = make([]bool, p.NumCells())
	for _, i := range cells {
		if i >= 0 && i < len(p.sel) {
			p.sel[i] = true
		}
	}
	return p
}

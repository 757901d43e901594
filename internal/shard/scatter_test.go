package shard

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"infat/internal/exp"
	"infat/internal/splitmix"
	"infat/internal/workloads"
)

// simRTT is one request round trip on the simulated clock, in the cost
// vector's unit (about a millisecond of simulation).
const simRTT = 0.5

// simCosts is a seeded cost vector shaped like the report plan: each
// workload draws a heavy-tailed (Pareto, α = 1.2) base cost, its perf
// cells vary around it by configuration, and its memory cells, at four
// times the scale but untimed, cost about three perf cells.
func simCosts(plan exp.Plan, seed uint64) []float64 {
	rng := splitmix.New(seed)
	unit := func() float64 { return float64(rng.Next()>>11) / (1 << 53) }
	base := map[string]float64{}
	cost := make([]float64, plan.NumCells())
	for i := range cost {
		m := plan.Meta(i)
		b, ok := base[m.Workload]
		if !ok {
			b = math.Min(40, math.Pow(1-unit(), -1/1.2))
			base[m.Workload] = b
		}
		cost[i] = b * (0.8 + 0.6*unit())
		if m.Kind == exp.CellMem {
			cost[i] *= 3
		}
	}
	return cost
}

// simEvent is a chunk reaching a backend (cell < 0) or a cell finishing.
type simEvent struct {
	t     float64
	order int // FIFO among equal times
	b     int
	cells []int
	cell  int
}

type simQueue []simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].order < q[j].order
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// simFleet runs cells on backends of w workers each, which start the
// cells they receive in arrival order. A chunk or request reaches its
// backend one round trip after it is sent; a finished cell reaches the
// shard at once.
type simFleet struct {
	cost    []float64
	w       int
	q       simQueue
	order   int
	fifo    [][]int
	busy    []int
	now     float64
	onArr   func(b int)
	onDone  func(b, cell int)
	lastEnd float64
}

func newSimFleet(cost []float64, backends, w int) *simFleet {
	return &simFleet{cost: cost, w: w, fifo: make([][]int, backends), busy: make([]int, backends)}
}

func (f *simFleet) send(b int, cells []int) {
	f.order++
	heap.Push(&f.q, simEvent{t: f.now + simRTT, order: f.order, b: b, cells: cells, cell: -1})
}

func (f *simFleet) startWork(b int) {
	for f.busy[b] < f.w && len(f.fifo[b]) > 0 {
		c := f.fifo[b][0]
		f.fifo[b] = f.fifo[b][1:]
		f.busy[b]++
		f.order++
		heap.Push(&f.q, simEvent{t: f.now + f.cost[c], order: f.order, b: b, cell: c})
	}
}

// run drains the event queue and returns the makespan: when the last
// cell reached the shard.
func (f *simFleet) run() float64 {
	for f.q.Len() > 0 {
		e := heap.Pop(&f.q).(simEvent)
		f.now = e.t
		if e.cell < 0 {
			f.fifo[e.b] = append(f.fifo[e.b], e.cells...)
			if f.onArr != nil {
				f.onArr(e.b)
			}
		} else {
			f.busy[e.b]--
			f.lastEnd = f.now
			if f.onDone != nil {
				f.onDone(e.b, e.cell)
			}
		}
		f.startWork(e.b)
	}
	return f.lastEnd
}

// simStatic is the static ring partition: every backend sent its ring
// owner's cells, in seq order, in one request at time 0.
func simStatic(cost []float64, homes [][]int, w int) float64 {
	f := newSimFleet(cost, len(homes), w)
	for b, cells := range homes {
		if len(cells) > 0 {
			f.send(b, cells)
		}
	}
	return f.run()
}

// simScatter runs the campaign through a scatter: cells in pins go to
// their backend in one request, every other cell is queued, and each
// backend reports w workers with its first stream. It returns the
// makespan, the flights dispatched, and how often each cell was
// dispatched.
func simScatter(t *testing.T, cost []float64, owner func(int, func(int) bool) int, weight func(int) int,
	backends, w int, pins map[int][]int) (makespan float64, flights []*flight, sent []int) {
	t.Helper()
	n := len(cost)
	sc := newScatter(backends, n, owner, func(int) bool { return true }, weight)
	f := newSimFleet(cost, backends, w)
	sent = make([]int, n)
	dispatch := func(fl *flight) {
		flights = append(flights, fl)
		for _, c := range fl.cells {
			sent[c]++
		}
		f.send(fl.b, fl.cells)
	}
	fill := func() {
		for b := 0; b < backends; b++ {
			for sc.wants(b) {
				dispatch(sc.next(b))
			}
		}
	}
	f.onArr = func(b int) {
		sc.workers[b] = w
		fill()
	}
	f.onDone = func(b, cell int) {
		if !sc.deliver(cell) {
			t.Fatalf("cell %d delivered twice", cell)
		}
		fill()
	}
	pinned := map[int]bool{}
	for b, cells := range pins {
		dispatch(sc.send(&flight{b: b, cells: cells}))
		for _, c := range cells {
			pinned[c] = true
		}
	}
	var fresh []int
	for c := 0; c < n; c++ {
		if !pinned[c] {
			fresh = append(fresh, c)
		}
	}
	sc.queue(fresh)
	fill()
	makespan = f.run()
	for c := 0; c < n; c++ {
		if !sc.done[c] {
			t.Fatalf("cell %d never delivered", c)
		}
	}
	return makespan, flights, sent
}

// TestScatterFactoringMakespan drives the placement policy on a simulated
// clock over a skewed report-plan cost vector, for 2 and 3 backends of
// 1, 2, 4 and 8 workers. Every cell must be dispatched exactly once, a
// pinned cell only to its backend, and the makespan may exceed the
// static ring partition's by at most one round trip per chunk beyond
// the static partition's one request per backend. With one worker per
// backend, where the ring's skew shows most, it must be strictly lower.
func TestScatterFactoringMakespan(t *testing.T) {
	plan := exp.NewReportPlan(workloads.All, 1, exp.MemScale)
	cost := simCosts(plan, 7)
	for _, backends := range []int{2, 3} {
		r := newRing(backends, ringReplicas, func(i int) string { return fmt.Sprintf("http://ifp-backend-%d.bench:80", i) })
		owner := func(c int, ok func(int) bool) int { return r.owner(plan.Key(c), ok) }
		homes := make([][]int, backends)
		load := make([]float64, backends)
		total := 0.0
		for c := range cost {
			b := owner(c, func(int) bool { return true })
			homes[b] = append(homes[b], c)
			load[b] += cost[c]
			total += cost[c]
		}
		// The case is skewed: the ring gives one backend well over its
		// share of the work, as it does the report plan's.
		if skew := slices.Max(load) / (total / float64(backends)); skew < 1.1 {
			t.Fatalf("P=%d: ring partition work skew %.2f, want a skewed case", backends, skew)
		}
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("P=%d/W=%d", backends, w), func(t *testing.T) {
				static := simStatic(cost, homes, w)
				got, flights, sent := simScatter(t, cost, owner, plan.CellScale, backends, w, nil)
				for c, n := range sent {
					if n != 1 {
						t.Fatalf("cell %d dispatched %d times", c, n)
					}
				}
				extra := float64(len(flights)-backends) * simRTT
				t.Logf("static %.1f, scatter %.1f over %d chunks (%+.1f%%)", static, got, len(flights), 100*(got/static-1))
				if got > static+extra {
					t.Errorf("makespan %.1f exceeds static %.1f + %d extra chunks' round trips", got, static, len(flights)-backends)
				}
				if w == 1 && got >= static {
					t.Errorf("one worker per backend: makespan %.1f not below static %.1f", got, static)
				}

				// Pin every third cell to a backend other than its home:
				// those go in one request each and are never moved.
				pins := map[int][]int{}
				pinnedTo := map[int]int{}
				for c := 0; c < len(cost); c += 3 {
					b := (owner(c, func(int) bool { return true }) + 1) % backends
					pins[b] = append(pins[b], c)
					pinnedTo[c] = b
				}
				_, flights, sent = simScatter(t, cost, owner, plan.CellScale, backends, w, pins)
				for c, n := range sent {
					if n != 1 {
						t.Fatalf("pinned run: cell %d dispatched %d times", c, n)
					}
				}
				for _, f := range flights {
					for _, c := range f.cells {
						if b, ok := pinnedTo[c]; ok && (f.b != b || f.steal) {
							t.Fatalf("pinned cell %d (backend %d) dispatched to backend %d", c, b, f.b)
						}
					}
				}
			})
		}
	}
}

// TestScatterStragglerRule drives the hedge and cancel rule on a
// simulated clock. Before the campaign's first line no flight is due a
// hedge, however long it is silent. After it, a flight silent for
// hedgeGaps times the campaign's longest gap, and at least hedgeFloor,
// is due exactly one hedge; a flight that keeps delivering never is. A
// flight whose remaining cells another flight delivered is covered,
// whether it is the straggler or its hedge, and a flight that delivers
// its own last cell is not.
func TestScatterStragglerRule(t *testing.T) {
	const floor, k = hedgeFloor, hedgeGaps
	t0 := time.Unix(0, 0)
	owner := func(c int, ok func(int) bool) int {
		for b := 0; b < 2; b++ {
			if ok(b) {
				return b
			}
		}
		return -1
	}
	sc := newScatter(2, 8, owner, func(int) bool { return true }, func(int) int { return 1 })
	dispatch := func(f *flight, at time.Time) *flight {
		f.quiet = at
		return sc.send(f)
	}
	// due asks whether f is due its hedge at at, and dispatches the hedge
	// it gets.
	due := func(f *flight, at time.Time, wantHedge bool, wantWait time.Duration) *flight {
		t.Helper()
		hedges, wait := sc.straggle(f, at)
		if (len(hedges) > 0) != wantHedge || wait != wantWait {
			t.Fatalf("straggle(flight on %d %v) at %v = %d hedges, %v; want %v, %v",
				f.b, f.cells, at.Sub(t0), len(hedges), wait, wantHedge, wantWait)
		}
		if !wantHedge {
			return nil
		}
		h := hedges[0]
		if len(hedges) != 1 || h.b == f.b || !h.hedge || !slices.Equal(h.cells, sc.undelivered(f)) {
			t.Fatalf("flight on %d %v hedged as %d flights, the first on %d %v", f.b, f.cells, len(hedges), h.b, h.cells)
		}
		h.quiet = at
		return h
	}
	relay := func(f *flight, c int, at time.Time, want ...*flight) {
		t.Helper()
		first, covered := sc.relayed(f, c, at)
		if !first {
			t.Fatalf("cell %d: not a first delivery", c)
		}
		if !slices.Equal(covered, want) {
			t.Fatalf("cell %d covers %d flights, want %d", c, len(covered), len(want))
		}
	}

	slow := dispatch(&flight{b: 0, cells: []int{0, 1}}, t0)
	steady := dispatch(&flight{b: 1, cells: []int{2, 3, 4, 5}}, t0)
	due(slow, t0.Add(time.Hour), false, floor)

	// A short gap: the floor bounds the silence.
	short := floor / (2 * k)
	relay(steady, 2, t0.Add(short))
	due(slow, t0.Add(floor/2), false, floor/2)
	// A longer gap: k of them, twice the floor, do.
	long := 2 * floor / k
	relay(steady, 3, t0.Add(short+long))
	due(slow, t0.Add(floor), false, floor)
	due(steady, t0.Add(floor), false, short+long+floor)
	hedge := due(slow, t0.Add(2*floor), true, 0)
	due(slow, t0.Add(time.Hour), false, 0) // hedged once

	// The hedge carries slow's undelivered cells to the other backend and
	// is never hedged itself. Delivering them all covers slow; the hedge,
	// delivering its own last cell, is not covered.
	due(hedge, t0.Add(time.Hour), false, 0)
	relay(hedge, 0, t0.Add(2*floor+short))
	relay(hedge, 1, t0.Add(2*floor+2*short), slow)
	// slow's late copy is its first line: the longest gap so far.
	if first, covered := sc.relayed(slow, 0, t0.Add(3*floor)); first || covered != nil {
		t.Fatalf("straggler's late copy of cell 0: first %v, covers %d flights", first, len(covered))
	}

	// A steady flight finishing its own cells covers nobody.
	relay(steady, 4, t0.Add(3*floor+short))
	relay(steady, 5, t0.Add(3*floor+2*short))

	// A straggler that resumes and beats its hedge covers the hedge.
	t1 := t0.Add(4 * floor)
	late := dispatch(&flight{b: 0, cells: []int{6, 7}}, t1)
	bound := k * 3 * floor
	due(late, t1, false, bound)
	lateHedge := due(late, t1.Add(bound), true, 0)
	relay(late, 6, t1.Add(bound+short))
	relay(late, 7, t1.Add(bound+2*short), lateHedge)
}

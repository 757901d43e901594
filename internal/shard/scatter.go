package shard

// Work-conserving campaign placement. The ring balances how many cells
// each backend owns, not how much work they are: the report plan's
// costliest cells can all hash to one backend, which then runs long
// after the others have gone idle. So a campaign's never-served cells
// are not sent to their ring owners at once. They wait in one held
// queue per backend — the ring owner's is a cell's home queue — and go
// out in chunks whenever a backend has fewer cells outstanding than it
// has workers: from the front of its own queue, or, once that is empty,
// from the back of the largest other queue. Chunks follow factoring
// (Hummel, Schonberg & Flynn, CACM 35(8), 1992): max(W_b, ⌈R/(2P)⌉)
// cells, for R held cells, P backends serving the campaign, and W_b the
// backend's own worker count, so early chunks are large and the last
// ones small. Queues keep the heaviest cells (largest effective scale)
// in front: owners start them first and thieves take the lightest.
//
// A cell the shard has already seen a backend serve skips the queues: it
// is pinned to that backend, because that backend's memo store holds it.
//
// Stragglers are judged by the campaign's own pace (straggle), and a
// flight whose remaining cells other flights delivered is covered
// (relayed): the shard cancels its relay.
//
// scatter holds the placement decisions and their bookkeeping and does
// no I/O, so tests can drive it on a simulated clock. It is not safe for
// concurrent use; the shard guards it with the campaign's mutex.

import (
	"sort"
	"time"
)

const (
	// hedgeGaps is the margin over the longest gap. A campaign's cells
	// differ in cost a hundredfold and its first lines come from the
	// cheapest, so an honest flight was seen silent for 6.3 longest gaps
	// beyond the floor (DESIGN.md §15).
	hedgeGaps = 16
	// hedgeFloor keeps a GC pause or a descheduled relay from hedging a
	// campaign whose gaps are memo hits, well under a millisecond apart.
	hedgeFloor = 2 * time.Second
)

// flight is one relay of cells to backend b: a chunk, the cells pinned
// to b, or a hedge.
type flight struct {
	b      int
	cells  []int
	steal  bool      // a chunk taken from another backend's held queue
	hedge  bool      // second copies of another flight's undelivered cells
	hedged bool      // its undelivered cells have been hedged
	ended  bool      // retired by end
	quiet  time.Time // its dispatch or latest line
	cancel func()    // ends its relay
}

// scatter is one campaign's placement state over n backends.
type scatter struct {
	// owner is cell's ring owner among the backends ok admits (-1: none).
	owner func(cell int, ok func(b int) bool) int
	// up reports whether a backend passes its health checks.
	up func(b int) bool
	// weight is cell's effective scale: heavier cells start first.
	weight func(cell int) int

	held    [][]int // per backend: undispatched cells homed there, heaviest first
	nheld   int
	out     []int  // per backend: dispatched cells not yet delivered
	workers []int  // per backend: cells it simulates at once (1 until it reports)
	gone    []bool // per backend: excluded from the campaign by a failed relay

	done []bool        // per cell: delivered
	on   [][]*flight   // per cell: live flights carrying it
	gap  time.Duration // the longest gap so far (0: no line yet)
}

func newScatter(backends, cells int, owner func(int, func(int) bool) int, up func(int) bool, weight func(int) int) *scatter {
	s := &scatter{
		owner: owner, up: up, weight: weight,
		held:    make([][]int, backends),
		out:     make([]int, backends),
		workers: make([]int, backends),
		gone:    make([]bool, backends),
		done:    make([]bool, cells),
		on:      make([][]*flight, cells),
	}
	for b := range s.workers {
		s.workers[b] = 1
	}
	return s
}

// queue holds cells, each on its home queue: its ring owner among the
// backends still serving the campaign, preferring those that are up. A
// cell no backend can take stays undelivered. queue returns how many
// cells it held.
func (s *scatter) queue(cells []int) (held int) {
	homes := make(map[int][]int)
	for _, c := range cells {
		b := s.owner(c, func(b int) bool { return !s.gone[b] && s.up(b) })
		if b < 0 {
			b = s.owner(c, func(b int) bool { return !s.gone[b] })
		}
		if b >= 0 {
			homes[b] = append(homes[b], c)
		}
	}
	for b, cs := range homes {
		q := append(s.held[b], cs...)
		sort.Slice(q, func(x, y int) bool {
			if wx, wy := s.weight(q[x]), s.weight(q[y]); wx != wy {
				return wx > wy
			}
			return q[x] < q[y]
		})
		s.held[b] = q
		s.nheld += len(cs)
		held += len(cs)
	}
	return held
}

// live is P in the chunk rule: the backends serving the campaign and up.
func (s *scatter) live() int {
	n := 0
	for b, gone := range s.gone {
		if !gone && s.up(b) {
			n++
		}
	}
	return max(n, 1)
}

// wants reports whether backend b is due a chunk: it serves the
// campaign, cells are held, and fewer than its workers' worth are
// outstanding on it.
func (s *scatter) wants(b int) bool {
	return !s.gone[b] && s.nheld > 0 && s.out[b] < s.workers[b]
}

// next dispatches backend b's next chunk, max(W_b, ⌈R/(2P)⌉) cells, from
// the front of its own queue or, when that is empty, from the back of
// the largest other queue. Call it only when wants(b).
func (s *scatter) next(b int) *flight {
	p2 := 2 * s.live()
	size := max(s.workers[b], (s.nheld+p2-1)/p2)
	f := &flight{b: b}
	if q := s.held[b]; len(q) > 0 {
		n := min(size, len(q))
		f.cells, s.held[b] = append([]int(nil), q[:n]...), q[n:]
	} else {
		v := -1
		for o, q := range s.held {
			if v < 0 || len(q) > len(s.held[v]) {
				v = o
			}
		}
		q := s.held[v]
		n := min(size, len(q))
		f.cells, s.held[v], f.steal = append([]int(nil), q[len(q)-n:]...), q[:len(q)-n], true
	}
	s.nheld -= len(f.cells)
	return s.send(f)
}

// send dispatches f's cells, which no held queue holds: cells pinned to
// the backend that served them, or hedged copies of dispatched cells.
func (s *scatter) send(f *flight) *flight {
	for _, c := range f.cells {
		s.on[c] = append(s.on[c], f)
	}
	s.out[f.b] += len(f.cells)
	return f
}

// deliver records cell c as delivered and reports whether this is its
// first delivery, the copy the client receives.
func (s *scatter) deliver(c int) bool {
	if s.done[c] {
		return false
	}
	s.done[c] = true
	for _, f := range s.on[c] {
		s.out[f.b]--
	}
	s.on[c] = nil
	return true
}

// relayed records flight f relaying cell c at now. It reports whether
// this is c's first delivery, the copy the client receives, and returns
// the other flights the delivery covers. A flight that delivers its own
// last cell is not covered: it ends on its trailer.
func (s *scatter) relayed(f *flight, c int, now time.Time) (first bool, covered []*flight) {
	s.gap, f.quiet = max(s.gap, now.Sub(f.quiet)), now
	others := s.on[c]
	if !s.deliver(c) {
		return false, nil
	}
	for _, g := range others {
		if g != f && len(s.undelivered(g)) == 0 {
			covered = append(covered, g)
		}
	}
	return true, covered
}

// straggle hedges flight f if it is due its one hedge at now. A gap is
// the time from a flight's dispatch to its first line, or from one line
// to its next; once the campaign has relayed a line, a flight silent for
// hedgeGaps times the longest gap so far, and at least hedgeFloor, is
// due. Each of its undelivered cells goes to its ring owner among the
// other backends serving the campaign and up, while f keeps running.
// Otherwise straggle returns how long to wait before asking again (0:
// never).
func (s *scatter) straggle(f *flight, now time.Time) (hedges []*flight, wait time.Duration) {
	switch {
	case f.hedge || f.hedged || f.ended:
		return nil, 0
	case s.gap == 0:
		return nil, hedgeFloor
	}
	if wait = f.quiet.Add(max(hedgeFloor, hedgeGaps*s.gap)).Sub(now); wait > 0 {
		return nil, wait
	}
	f.hedged = true
	parts := make([][]int, len(s.held))
	for _, c := range s.undelivered(f) {
		if b := s.owner(c, func(b int) bool { return b != f.b && !s.gone[b] && s.up(b) }); b >= 0 {
			parts[b] = append(parts[b], c)
		}
	}
	for b, cs := range parts {
		if len(cs) > 0 {
			hedges = append(hedges, s.send(&flight{b: b, cells: cs, hedge: true}))
		}
	}
	return hedges, 0
}

// undelivered lists f's cells not yet delivered.
func (s *scatter) undelivered(f *flight) []int {
	var cs []int
	for _, c := range f.cells {
		if !s.done[c] {
			cs = append(cs, c)
		}
	}
	return cs
}

// end retires flight f. A failed flight excludes its backend from the
// campaign: each cell it leaves undelivered and no other live flight
// carries, and every cell still held on its queue, is queued again on
// the backends that remain. end returns how many cells moved. An
// excluded backend is sent nothing more, so a cell moves at most once
// per backend.
func (s *scatter) end(f *flight, failed bool) (moved int) {
	f.ended = true
	var back []int
	for _, c := range s.undelivered(f) {
		on := s.on[c][:0]
		for _, g := range s.on[c] {
			if g != f {
				on = append(on, g)
			}
		}
		s.on[c] = on
		s.out[f.b]--
		if len(on) == 0 {
			back = append(back, c)
		}
	}
	if !failed {
		return 0
	}
	s.gone[f.b] = true
	back = append(back, s.held[f.b]...)
	s.nheld -= len(s.held[f.b])
	s.held[f.b] = nil
	return s.queue(back)
}

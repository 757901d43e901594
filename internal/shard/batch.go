package shard

// Batch fan-out: the shard serves the same streaming campaign endpoints
// as one backend (/v1/batch, /v1/chaos: server.CampaignRoutes, resolved
// and bounded by the backends' own resolvers) by scattering the
// campaign's cells across the fleet and merging the backends' NDJSON
// streams into one, in completion order, cell lines passed through
// byte-for-byte. A client cannot tell a shard from a single ifp-serve,
// and reassembles the identical report either way.
//
// Placement (scatter.go): cells a backend has served before are pinned
// to it and sent in one request; every other cell waits on its ring
// owner's held queue and goes out in factoring-sized chunks to whichever
// backend runs short of work, its owner or a thief. Each cell is
// dispatched once, so unless a hedge or a failed relay sends it again, a
// cold campaign computes every cell exactly once, and a replay of it is
// all memo hits.
//
// Draining: when a relay fails (transport error, truncated stream,
// corrupt line), its backend is excluded from the campaign and the cells
// it never delivered go back to the held queues of the backends that
// remain. A flight silent for long by the campaign's own pace
// (scatter.go) is hedged — its undelivered cells re-sent to a second
// backend while the first keeps running — and whichever answer lands
// first wins (seq dedup drops the other); the flight left with nothing
// to deliver is cancelled. Cells that no backend can run are emitted as
// error cells, so the stream still ends with an honest trailer.
//
// Trust boundary: backend stream lines are validated, not relayed
// blindly. A line must decode, carry a seq the backend was actually
// assigned, match the plan's cell identity for that seq, and have the
// right payload shape — anything else is ErrCorruptLine, which fails
// the relay and reassigns the backend's remaining cells. Validation is
// what makes hedging and failover safe against a byte-corrupting
// backend, not just a dead one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"infat/internal/server"
)

// ErrCorruptLine reports a backend stream line that failed validation:
// undecodable JSON, a seq outside the backend's assigned part, a cell
// identity that contradicts the plan, or a malformed payload. The relay
// treats it like a transport failure — the backend's remaining cells
// get a new home — and never forwards the line to the client.
var ErrCorruptLine = errors.New("shard: corrupt stream line")

// handleCampaign serves one route of the backends' campaign table: the
// request is resolved and bounded exactly as a backend resolves it, so a
// request every backend would reject is answered 400 here, before any
// backend is contacted or charged with a failure.
func (s *Shard) handleCampaign(route server.CampaignRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		camp, err := route.Resolve(http.MaxBytesReader(w, r.Body, server.MaxCampaignBodyBytes), nil)
		if err != nil {
			writeShardError(w, http.StatusBadRequest, err)
			return
		}
		s.streamScattered(w, r, route.Path, camp)
	}
}

// streamScattered places the campaign's cells on the fleet, merges the
// backend streams into one NDJSON response, moves cells lost to a failed
// backend, and closes with the merged trailer.
func (s *Shard) streamScattered(w http.ResponseWriter, r *http.Request, path string, camp server.Campaign) {
	cells := camp.Cells()
	s.metrics["batch_streams"].Add(1)
	ctx := r.Context()

	w.Header().Set("Content-Type", server.NDJSONContentType)
	w.Header().Set(server.CellsHeader, strconv.Itoa(len(cells)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var mu sync.Mutex // guards sc, the trailer counts and response writes
	sc := newScatter(len(s.backends), camp.NumCells(),
		func(i int, ok func(int) bool) int { return s.ring.owner(camp.Key(i), ok) },
		func(b int) bool { return s.backends[b].isUp() },
		camp.CellScale)
	completed, failed := 0, 0
	emitLocked := func(line []byte) {
		if ctx.Err() != nil {
			return
		}
		w.Write(line)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}

	var wg sync.WaitGroup
	var start func(f *flight)
	// fillLocked tops up every up backend due a chunk.
	fillLocked := func() {
		for b, be := range s.backends {
			for ctx.Err() == nil && sc.wants(b) && be.isUp() {
				start(sc.next(b))
			}
		}
	}
	// deliver merges one relayed cell line: deduplicated on seq. Dedup is
	// the invariant that makes hedging and reassignment safe — whichever
	// copy of a cell arrives first wins, every later copy (hedge answer,
	// duplicated backend line) is counted and dropped. The flights a line
	// covers have nothing left to deliver: their relays are cancelled.
	deliver := func(f *flight, seq int, line []byte, isErr bool) {
		mu.Lock()
		defer mu.Unlock()
		first, covered := sc.relayed(f, seq, time.Now())
		for _, g := range covered {
			g.cancel()
		}
		if !first {
			s.metrics["dup_suppressed"].Add(1)
			return
		}
		if isErr {
			failed++
		} else {
			completed++
			s.dirMu.Lock()
			s.dir[camp.CellDigest(seq)] = f.b
			s.dirMu.Unlock()
		}
		if f.steal {
			s.metrics["stolen_cells"].Add(1)
		}
		s.metrics["batch_cells"].Add(1)
		emitLocked(line)
		fillLocked()
	}
	// start relays flight f under the relay timeout, feeding the health
	// verdict with the outcome, and arms f's straggler timer, which starts
	// its hedges. A failed relay excludes its backend for the rest of the
	// campaign; so does a cancelled straggler, as if its relay timed out.
	// A cancelled hedge lost a race, which says nothing of its backend.
	start = func(f *flight) {
		wg.Add(1)
		f.quiet = time.Now()
		rctx, cancel := context.WithTimeout(ctx, relayTimeout)
		f.cancel = cancel
		var straggler *time.Timer
		straggler = time.AfterFunc(hedgeFloor, func() {
			mu.Lock()
			defer mu.Unlock()
			if ctx.Err() != nil {
				return
			}
			hedges, wait := sc.straggle(f, time.Now())
			for _, h := range hedges {
				s.metrics["hedged_cells"].Add(uint64(len(h.cells)))
				start(h)
			}
			if wait > 0 {
				straggler.Reset(wait)
			}
		})
		go func() {
			defer wg.Done()
			defer cancel()
			workers := func(n int) {
				mu.Lock()
				defer mu.Unlock()
				sc.workers[f.b] = n
				fillLocked()
			}
			err := s.relayStream(rctx, s.backends[f.b], path, camp, f.cells, workers,
				func(seq int, line []byte, isErr bool) { deliver(f, seq, line, isErr) })
			mu.Lock()
			defer mu.Unlock()
			straggler.Stop()
			relayFailed := err != nil && !(f.hedge && len(sc.undelivered(f)) == 0)
			switch {
			case err == nil:
				s.noteSuccess(s.backends[f.b])
			case relayFailed && ctx.Err() == nil: // a client that left says nothing about the backend
				s.noteFailure(s.backends[f.b])
			}
			if moved := sc.end(f, relayFailed); moved > 0 {
				s.metrics["reassigned_cells"].Add(uint64(moved))
			}
			fillLocked()
		}()
	}

	mu.Lock()
	pinned, fresh := s.pinned(camp, cells)
	for b, part := range pinned {
		if len(part) > 0 && s.backends[b].isUp() {
			start(sc.send(&flight{b: b, cells: part}))
		} else {
			fresh = append(fresh, part...) // its server is out: start over at the ring owner
		}
	}
	sc.queue(fresh)
	fillLocked()
	mu.Unlock()
	wg.Wait()

	if ctx.Err() != nil {
		return // client gone: truncated stream, no trailer
	}
	mu.Lock()
	defer mu.Unlock()
	// Cells nobody could run are shed: emitted as explicit error cells,
	// so the client sees a complete, honest accounting instead of silent
	// gaps.
	for _, i := range cells {
		if sc.deliver(i) {
			m := camp.Meta(i)
			failed++
			s.metrics["shed_cells"].Add(1)
			emitLocked(mustShardJSON(server.BatchCell{Seq: m.Seq, Kind: m.Kind, Workload: m.Workload, Config: m.Config,
				Error: "no backend available"}))
		}
	}
	emitLocked(mustShardJSON(server.BatchTrailer{
		Done:      true,
		Cells:     len(cells),
		Completed: completed,
		Failed:    failed,
	}))
}

// pinned splits cells into those the directory pins, per backend, and
// the rest.
func (s *Shard) pinned(camp server.Campaign, cells []int) (pinned [][]int, fresh []int) {
	pinned = make([][]int, len(s.backends))
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	for _, i := range cells {
		if b, ok := s.dir[camp.CellDigest(i)]; ok {
			pinned[b] = append(pinned[b], i)
		} else {
			fresh = append(fresh, i)
		}
	}
	return pinned, fresh
}

// relayStream consumes one backend's NDJSON stream for the cells of
// part, validating every cell line against the plan and part before
// handing it to deliver, and passing the backend's reported worker count
// to workers. It fails on transport errors, truncation, corrupt lines,
// and a trailer that arrives before every cell of part has — the cases
// where the backend's remaining cells need a new home. Valid lines are
// relayed byte-for-byte, so the client's reassembled report stays
// identical to a serial run's.
func (s *Shard) relayStream(ctx context.Context, b *backend, path string, camp server.Campaign, part []int,
	workers func(n int), deliver func(seq int, line []byte, isErr bool)) error {
	assigned := make(map[int]bool, len(part))
	for _, i := range part {
		assigned[i] = true
	}
	seen := make(map[int]bool, len(part))
	sawTrailer := false
	err := b.client.StreamNDJSON(ctx, path, camp.Request(part), func(h http.Header) {
		if n, err := strconv.Atoi(h.Get(server.WorkersHeader)); err == nil && n > 0 {
			workers(n)
		}
	}, func(line []byte) error {
		cell, done, err := relayLine(camp, assigned, line)
		if err != nil {
			s.metrics["corrupt_lines"].Add(1)
			return fmt.Errorf("shard: %s: %w: %v", b.url, ErrCorruptLine, err)
		}
		if done {
			sawTrailer = true
			return nil
		}
		seen[cell.Seq] = true
		deliver(cell.Seq, line, cell.Error != "")
		return nil
	})
	if err != nil {
		return err
	}
	if !sawTrailer {
		return fmt.Errorf("shard: %s: %w", b.url, server.ErrTruncatedStream)
	}
	if missing := len(part) - len(seen); missing > 0 {
		return fmt.Errorf("shard: %s: %w: trailer before %d of %d cells", b.url, server.ErrTruncatedStream, missing, len(part))
	}
	return nil
}

// relayLine decodes and validates one backend stream line: either the
// trailer (done) or a cell line that keeps the stream contract — a seq
// the backend was assigned, then the campaign's own check: the plan's
// identity for that seq and, unless it is an error cell, the payload
// shape its kind requires, as the client's checked assembly applies it.
// Anything else is a corrupt line: the backend answered a question it
// was not asked, a corrupted stream rather than a failed simulation.
func relayLine(camp server.Campaign, assigned map[int]bool, line []byte) (cell server.BatchCell, done bool, err error) {
	var probe struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return cell, false, fmt.Errorf("undecodable line: %v", err)
	}
	if probe.Done {
		return cell, true, nil
	}
	if err := json.Unmarshal(line, &cell); err != nil {
		return cell, false, fmt.Errorf("undecodable cell: %v", err)
	}
	if !assigned[cell.Seq] {
		return cell, false, fmt.Errorf("cell seq %d not in this backend's assignment", cell.Seq)
	}
	return cell, false, camp.CheckCell(cell)
}

func mustShardJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data types: a marshal failure is a programming error
	}
	return b
}

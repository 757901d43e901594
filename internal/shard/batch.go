package shard

// Batch fan-out: the shard serves the same streaming campaign endpoints
// as one backend (/v1/batch, /v1/grid, /v1/chaos: server.CampaignRoutes,
// resolved and bounded by the backends' own resolvers) by scattering the
// campaign's cells across the ring — each cell to the backend owning
// its stable plan key — and merging the backends' NDJSON streams into
// one, in completion order, cell lines passed through byte-for-byte.
// A client cannot tell a shard from a single ifp-serve, and reassembles
// the identical report either way.
//
// Draining: when a backend's stream fails (transport error, truncated
// stream, corrupt line), the cells it never delivered are re-scattered
// over the surviving backends, up to one round per backend. Within a
// round, cells still undelivered HedgeAfter into the dispatch are
// hedged — re-sent to a second backend while the primary keeps running
// — and whichever answer lands first wins (seq dedup drops the other).
// Cells that no backend can run are emitted as error cells, so the
// stream still ends with an honest trailer.
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
		camp, err := route.Resolve(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), nil)
		if err != nil {
			writeShardError(w, http.StatusBadRequest, err)
			return
		}
		s.streamScattered(w, r, route.Path, camp)
	}
}

// streamScattered fans the cells over their ring owners, merges the
// backend streams into one NDJSON response, reassigns cells lost to a
// failed backend, and closes with the merged trailer.
func (s *Shard) streamScattered(w http.ResponseWriter, r *http.Request, path string, camp server.Campaign) {
	cells := camp.Cells()
	s.metrics.batchStreams.Add(1)
	ctx := r.Context()

	w.Header().Set("Content-Type", server.NDJSONContentType)
	w.Header().Set(server.CellsHeader, strconv.Itoa(len(cells)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var mu sync.Mutex // serializes receipt tracking and response writes
	received := make([]bool, camp.NumCells())
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
	// deliver merges one relayed cell line: deduplicated on seq. Dedup is
	// the invariant that makes hedging and reassignment safe — whichever
	// copy of a cell arrives first wins, every later copy (hedge answer,
	// duplicated backend line) is counted and dropped.
	deliver := func(seq int, line []byte, isErr bool) {
		mu.Lock()
		defer mu.Unlock()
		if seq < 0 || seq >= len(received) {
			return
		}
		if received[seq] {
			s.metrics.dupSuppressed.Add(1)
			return
		}
		received[seq] = true
		if isErr {
			failed++
		} else {
			completed++
		}
		s.metrics.batchCells.Add(1)
		emitLocked(line)
	}

	var exMu sync.Mutex
	excluded := make(map[int]bool, len(s.backends))
	isExcluded := func(b int) bool {
		exMu.Lock()
		defer exMu.Unlock()
		return excluded[b]
	}
	// runPart relays one backend's cell subset under the relay timeout,
	// feeding the health verdict and breaker with the outcome. A failed
	// relay excludes the backend for the rest of this campaign — its
	// undelivered cells are picked up by the next round.
	runPart := func(wg *sync.WaitGroup, bi int, part []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx := ctx
			if s.cfg.RelayTimeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(ctx, s.cfg.RelayTimeout)
				defer cancel()
			}
			if err := s.relayStream(rctx, s.backends[bi], path, camp, part, deliver); err != nil {
				s.noteFailure(s.backends[bi])
				exMu.Lock()
				excluded[bi] = true
				exMu.Unlock()
				return
			}
			s.noteSuccess(s.backends[bi])
		}()
	}

	pending := cells
	for round := 0; round <= len(s.backends) && len(pending) > 0 && ctx.Err() == nil; round++ {
		if round > 0 {
			s.metrics.reassignedCells.Add(uint64(len(pending)))
		}
		parts := make(map[int][]int)
		for _, i := range pending {
			bi := s.ring.owner(camp.Key(i), func(b int) bool { return !excluded[b] && s.backends[b].eligible() })
			if bi < 0 {
				continue // orphan: retried next round if a backend recovers, else error cell
			}
			parts[bi] = append(parts[bi], i)
		}
		if len(parts) == 0 {
			break
		}
		var wg sync.WaitGroup
		for bi, part := range parts {
			runPart(&wg, bi, part)
		}
		// Hedge watchdog: if stragglers remain HedgeAfter into the round,
		// re-dispatch each undelivered cell to a backend other than its
		// primary. The primary keeps running — first answer wins, dedup
		// absorbs the loser — so a stalled-but-alive backend costs the
		// campaign one hedge budget, not a relay timeout.
		roundDone := make(chan struct{})
		var hedgeWG sync.WaitGroup
		if s.cfg.HedgeAfter > 0 && len(s.backends) > 1 {
			hedgeWG.Add(1)
			go func() {
				defer hedgeWG.Done()
				t := time.NewTimer(s.cfg.HedgeAfter)
				defer t.Stop()
				select {
				case <-roundDone:
					return
				case <-ctx.Done():
					return
				case <-t.C:
				}
				hedgeParts := make(map[int][]int)
				mu.Lock()
				for bi, part := range parts {
					for _, i := range part {
						if received[i] {
							continue
						}
						hb := s.ring.owner(camp.Key(i), func(b int) bool {
							return b != bi && !isExcluded(b) && s.backends[b].eligible()
						})
						if hb >= 0 {
							hedgeParts[hb] = append(hedgeParts[hb], i)
						}
					}
				}
				mu.Unlock()
				var hwg sync.WaitGroup
				for bi, part := range hedgeParts {
					s.metrics.hedgedCells.Add(uint64(len(part)))
					runPart(&hwg, bi, part)
				}
				hwg.Wait()
			}()
		}
		wg.Wait()
		close(roundDone)
		hedgeWG.Wait()
		var rest []int
		mu.Lock()
		for _, i := range pending {
			if !received[i] {
				rest = append(rest, i)
			}
		}
		mu.Unlock()
		pending = rest
	}

	if ctx.Err() != nil {
		return // client gone: truncated stream, no trailer
	}
	// Cells nobody could run are shed: emitted as explicit error cells,
	// so the client sees a complete, honest accounting instead of silent
	// gaps.
	for _, i := range pending {
		m := camp.Meta(i)
		cell := server.BatchCell{Seq: m.Seq, Kind: m.Kind, Workload: m.Workload, Config: m.Config,
			Error: "no backend available"}
		mu.Lock()
		if !received[i] {
			received[i] = true
			failed++
			s.metrics.shedCells.Add(1)
			emitLocked(mustShardJSON(cell))
		}
		mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	emitLocked(mustShardJSON(server.BatchTrailer{
		Done:      true,
		Cells:     len(cells),
		Completed: completed,
		Failed:    failed,
	}))
}

// relayStream consumes one backend's NDJSON stream, validating every
// cell line against the plan and the backend's assigned part before
// handing it to deliver. It fails on transport errors, truncation, and
// corrupt lines — the cases where the backend's remaining cells need a
// new home. Valid lines are relayed byte-for-byte, so the client's
// reassembled report stays identical to a serial run's.
func (s *Shard) relayStream(ctx context.Context, b *backend, path string, camp server.Campaign, part []int, deliver func(seq int, line []byte, isErr bool)) error {
	assigned := make(map[int]bool, len(part))
	for _, i := range part {
		assigned[i] = true
	}
	sawTrailer := false
	err := b.client.StreamNDJSON(ctx, path, camp.Request(part), func(line []byte) error {
		cell, done, err := relayLine(camp, assigned, line)
		if err != nil {
			s.metrics.corruptLines.Add(1)
			return fmt.Errorf("shard: %s: %w: %v", b.url, ErrCorruptLine, err)
		}
		if done {
			sawTrailer = true
			return nil
		}
		deliver(cell.Seq, line, cell.Error != "")
		return nil
	})
	if err != nil {
		return err
	}
	if !sawTrailer {
		return fmt.Errorf("shard: %s: %w", b.url, server.ErrTruncatedStream)
	}
	return nil
}

// relayLine decodes and validates one backend stream line: either the
// trailer (done) or a cell line validateCell accepts. Anything else is a
// corrupt line.
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
	return cell, false, validateCell(camp, assigned, cell)
}

// validateCell enforces the stream contract on one decoded cell line: a
// seq the backend was assigned, then the campaign's own check — the
// plan's identity for that seq and, unless it is an error cell, the
// payload shape its kind requires: the same check the client's checked
// assembly applies. A violation means the backend answered a question it
// was not asked — a corrupted stream, not a failed simulation.
func validateCell(camp server.Campaign, assigned map[int]bool, cell server.BatchCell) error {
	if !assigned[cell.Seq] {
		return fmt.Errorf("cell seq %d not in this backend's assignment", cell.Seq)
	}
	return camp.CheckCell(cell)
}

func mustShardJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data types: a marshal failure is a programming error
	}
	return b
}

package server

// The batch serving tier: POST /v1/batch accepts a whole campaign — the
// paper's §5.2 report, the temporal axis or the fault-injection grid,
// named by the request's plan — in one request and streams per-cell
// results back as NDJSON while the cells fan out over the same bounded
// worker semaphore the unary endpoints use. Each line carries
// deterministic ordering metadata (the cell's seq in the exp plan
// enumeration), so a client can reassemble the stream — received in
// completion order, not plan order — into the byte-identical report a
// serial ifp-bench run prints (Campaign.NewAssembly). A request may name
// an explicit cell subset, which is how the shard front tier
// (internal/shard) scatters one campaign across several backends and
// merges the streams. Every tier resolves a request's plan through one
// table (campaignPlans) over one generic campaign stream.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"infat/internal/chaos"
	"infat/internal/exp"
	"infat/internal/memo"
	"infat/internal/workloads"
)

// NDJSONContentType is the batch endpoint's response content type: one
// JSON object per line, cells in completion order, trailer last.
const NDJSONContentType = "application/x-ndjson"

// CellsHeader reports the number of cells a batch response will stream
// (before the trailer), set before the first line.
const CellsHeader = "X-Ifp-Cells"

// WorkersHeader reports, on every campaign stream, how many cells the
// backend simulates at once (Config.Workers): the shard keeps at least
// that many of a campaign's cells outstanding on it.
const WorkersHeader = "X-Ifp-Workers"

// RelayHeaders are the response headers a hop in front of a backend (the
// shard's unary forwarding, the netchaos proxy) passes on unchanged. Only
// campaign streams set the last two.
var RelayHeaders = []string{"Content-Type", CacheHeader, MemoHeader, RetryAfterHeader, CellsHeader, WorkersHeader}

// BatchPath is the campaign endpoint, shared with the client and the
// shard tier.
const BatchPath = "/v1/batch"

// The plans a BatchRequest can name.
const (
	PlanReport   = "report"   // Table 4 and Figures 10–12: exp.NewReportPlan
	PlanTemporal = "temporal" // the temporal axis: exp.TemporalPlan
	PlanChaos    = "chaos"    // the fault-injection campaign: exp.NewChaosPlan
)

// MaxScale bounds every scale a campaign request may ask for: its perf
// or chaos scale, and — times exp.MemScale, so the default memory
// experiment always fits — its memory-cell scale.
const MaxScale = 4

// BatchRequest is the POST /v1/batch body: a whole campaign, or an
// explicit subset of its cells.
type BatchRequest struct {
	// Plan names the campaign: PlanReport (the default when empty),
	// PlanTemporal or PlanChaos.
	Plan string `json:"plan,omitempty"`
	// Workloads selects the workload rows by name; empty selects the full
	// §5.2 suite. The chaos plan takes none.
	Workloads []string `json:"workloads,omitempty"`
	// Scale is the plan's scale factor (default 1), bounded by MaxScale:
	// the perf-grid scale, or the chaos plan's seeds per cell in units of
	// exp.ChaosSeedsPerCell.
	Scale int `json:"scale,omitempty"`
	// MemScale is the report plan's memory-cell scale multiplier (values
	// below 1 select exp.MemScale). Memory cells run at Scale*MemScale,
	// bounded by MaxScale*exp.MemScale. No other plan takes it.
	MemScale int `json:"mem_scale,omitempty"`
	// Cells restricts the run to an explicit subset of plan sequence
	// numbers (empty = every cell). The shard tier uses this to scatter
	// one campaign across backends.
	Cells []int `json:"cells,omitempty"`
}

// campaignPlans is the campaign table: each plan name's constructor,
// which rejects the request fields its plan does not take. Backends, the
// shard, the client and netchaos all resolve a request through it
// (BatchRequest.Resolve), so every tier agrees on what a plan name means.
var campaignPlans = map[string]func(r BatchRequest, store *memo.Store) (Campaign, error){
	PlanReport: func(r BatchRequest, store *memo.Store) (Campaign, error) {
		ws, err := resolveWorkloads(r.Workloads)
		if err != nil {
			return nil, err
		}
		p := exp.NewReportPlan(ws, r.Scale, r.MemScale)
		return newCampaign(p.WithMemo(store), r, p.Scale(), p.MemScale())
	},
	PlanTemporal: func(r BatchRequest, store *memo.Store) (Campaign, error) {
		if r.MemScale != 0 {
			return nil, errors.New(`plan "temporal" takes no mem_scale`)
		}
		ws, err := resolveWorkloads(r.Workloads)
		if err != nil {
			return nil, err
		}
		p := exp.TemporalPlan(ws, r.Scale)
		return newCampaign(p.WithMemo(store), r, p.Scale(), 0)
	},
	PlanChaos: func(r BatchRequest, store *memo.Store) (Campaign, error) {
		if len(r.Workloads) > 0 || r.MemScale != 0 {
			return nil, errors.New(`plan "chaos" takes no workloads and no mem_scale`)
		}
		p := exp.NewChaosPlan(r.Scale)
		return newCampaign(p.WithMemo(store), r, p.Scale(), 0)
	},
}

// Resolve resolves the request through the campaign table onto its
// campaign, memoized through store (nil: none), with its scales bounded
// and its cell subset validated.
func (r BatchRequest) Resolve(store *memo.Store) (Campaign, error) {
	name := r.Plan
	if name == "" {
		name = PlanReport
	}
	build, ok := campaignPlans[name]
	if !ok {
		return nil, fmt.Errorf("unknown plan %q (want %s, %s or %s)", r.Plan, PlanReport, PlanTemporal, PlanChaos)
	}
	return build(r, store)
}

// MaxCampaignBodyBytes bounds a campaign request body, on backends and
// the shard alike.
const MaxCampaignBodyBytes = 1 << 20

// ReadCampaign strictly decodes one BatchRequest body and resolves it.
// Backends and the shard both call it on at most MaxCampaignBodyBytes,
// so both tiers accept and reject exactly the same requests, and the
// shard rejects a bad one before it contacts any backend.
func ReadCampaign(body io.Reader, store *memo.Store) (Campaign, error) {
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	return req.Resolve(store)
}

func resolveWorkloads(names []string) ([]workloads.Workload, error) {
	if len(names) == 0 {
		return workloads.All, nil
	}
	ws := make([]workloads.Workload, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate workload %q", name)
		}
		seen[name] = true
		ws = append(ws, w)
	}
	return ws, nil
}

// BatchCell is one NDJSON line of a batch stream: the cell's plan
// metadata plus its payload — Result for grid/memory cells, Chaos for
// chaos cells, or Error when the cell failed (the stream keeps going;
// batch semantics are run-everything, like the in-process pool).
type BatchCell struct {
	Seq      int    `json:"seq"`
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`

	Result *exp.CellResult `json:"result,omitempty"`
	Chaos  *chaos.Outcome  `json:"chaos,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Meta returns the cell's identity as received — the envelope a checked
// assembly (exp.CampaignAssembly.AddChecked) verifies against the
// campaign's own enumeration before folding the payload in.
func (c BatchCell) Meta() exp.CellMeta {
	return exp.CellMeta{Seq: c.Seq, Kind: c.Kind, Workload: c.Workload, Config: c.Config}
}

// BatchTrailer is the final NDJSON line of a batch stream: the stream's
// own accounting, distinguished from cells by done=true. A client that
// never sees a trailer received a truncated stream.
type BatchTrailer struct {
	Done      bool `json:"done"`
	Cells     int  `json:"cells"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
}

// checkScale bounds campaign scales: the perf or chaos scale (already at
// least 1) by MaxScale, and the memory cells' effective scale
// (scale×memScale; 0 = no memory cells) by MaxScale×exp.MemScale. The
// bound is divided rather than the scales multiplied, so no mem_scale can
// overflow its way under it.
func checkScale(scale, memScale int) error {
	if scale > MaxScale {
		return fmt.Errorf("scale %d out of range [1, %d]", scale, MaxScale)
	}
	if max := MaxScale * exp.MemScale; memScale > max/scale {
		return fmt.Errorf("scale*mem_scale %d*%d out of range [1, %d]", scale, memScale, max)
	}
	return nil
}

// resolveSubset validates an explicit cell subset against the plan size:
// every index in range, no duplicates. An empty subset selects every
// cell.
func resolveSubset(n int, subset []int) ([]int, error) {
	if len(subset) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	seen := make(map[int]bool, len(subset))
	for _, i := range subset {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("cell %d out of range [0, %d)", i, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("duplicate cell %d", i)
		}
		seen[i] = true
	}
	return subset, nil
}

// Campaign is a campaign request resolved through the campaign table:
// the exp campaign it names and its validated cell subset.
type Campaign interface {
	exp.CellPlan
	// CellDigest is cell i's canonical memo key: what a backend that
	// served the cell holds it under.
	CellDigest(i int) memo.Digest
	// CellScale is cell i's effective scale (exp.Campaign.CellScale).
	CellScale(i int) int
	// Cells is the requested subset: every cell when the request named
	// none.
	Cells() []int
	// Request returns the request restricted to cells: the body the shard
	// sends the backend that owns them, and a client re-requests.
	Request(cells []int) BatchRequest
	// CheckCell checks one decoded stream line against the campaign: an
	// error cell's identity, or a cell's identity and payload (its
	// campaign's payload field, and no other, of the shape its kind
	// requires). Violations wrap exp.ErrCorruptCell.
	CheckCell(cell BatchCell) error
	// NewAssembly returns an empty checked assembly of the whole
	// campaign.
	NewAssembly() Assembly
	// RunLocal runs every cell in-process over at most workers goroutines
	// (exp.RunReport) and renders the report a served campaign must
	// reassemble to.
	RunLocal(workers int) (string, error)
	// stream serves the campaign on a backend.
	stream(s *Server, w http.ResponseWriter, r *http.Request)
}

// Assembly folds a campaign's streamed cell lines back into its report:
// the client's side of the contract CheckCell enforces at the shard
// relay.
type Assembly interface {
	// Add folds in one cell line, its identity and payload checked
	// against the campaign (violations wrap exp.ErrCorruptCell, a repeat
	// exp.ErrDuplicateCell). Error cells carry no payload and are the
	// caller's to handle.
	Add(cell BatchCell) error
	// Missing lists the sequence numbers not yet added, in order.
	Missing() []int
	// Report renders the complete campaign, byte-identical to a serial
	// run of it.
	Report() (string, error)
}

// campaign is the Campaign of an exp campaign with payload type C.
type campaign[C any] struct {
	exp.Campaign[C]
	cells []int
	req   BatchRequest
}

// newCampaign bounds the campaign's scales and resolves the request's
// cell subset against it.
func newCampaign[C any](c exp.Campaign[C], req BatchRequest, scale, memScale int) (Campaign, error) {
	if err := checkScale(scale, memScale); err != nil {
		return nil, err
	}
	cells, err := resolveSubset(c.NumCells(), req.Cells)
	if err != nil {
		return nil, err
	}
	return campaign[C]{c, cells, req}, nil
}

func (c campaign[C]) Cells() []int { return c.cells }

func (c campaign[C]) Request(cells []int) BatchRequest {
	r := c.req
	r.Cells = cells
	return r
}

func (c campaign[C]) CheckCell(cell BatchCell) error {
	if err := exp.CheckMeta(c, cell.Meta()); err != nil || cell.Error != "" {
		return err // an error cell carries no payload
	}
	v, err := cellPayload[C](cell)
	if err != nil {
		return err
	}
	return c.CheckPayload(cell.Seq, v)
}

func (c campaign[C]) NewAssembly() Assembly { return assembly[C]{exp.NewAssembly(c.Campaign)} }

func (c campaign[C]) RunLocal(workers int) (string, error) { return exp.RunReport(c.Campaign, workers) }

// assembly is the Assembly of a campaign with payload type C.
type assembly[C any] struct{ *exp.CampaignAssembly[C] }

func (a assembly[C]) Add(cell BatchCell) error {
	v, err := cellPayload[C](cell)
	if err != nil {
		return err
	}
	return a.AddChecked(cell.Meta(), v)
}

// cellPayload returns the payload a cell line carries for a campaign of
// payload type C: Result for exp.CellResult, Chaos for chaos.Outcome. The
// line must set that field and no other; anything else wraps
// exp.ErrCorruptCell.
func cellPayload[C any](cell BatchCell) (C, error) {
	var v C
	ok := false
	switch p := any(&v).(type) {
	case *exp.CellResult:
		if ok = cell.Result != nil && cell.Chaos == nil; ok {
			*p = *cell.Result
		}
	case *chaos.Outcome:
		if ok = cell.Chaos != nil && cell.Result == nil; ok {
			*p = *cell.Chaos
		}
	}
	if !ok {
		return v, fmt.Errorf("%w: %s cell %d does not carry exactly a %T payload", exp.ErrCorruptCell, cell.Kind, cell.Seq, v)
	}
	return v, nil
}

// setPayload stores v in the BatchCell field cellPayload reads it from.
func setPayload[C any](cell *BatchCell, v C) {
	switch p := any(&v).(type) {
	case *exp.CellResult:
		cell.Result = p
	case *chaos.Outcome:
		cell.Chaos = p
	}
}

// metaCell is a cell line carrying m's identity and no payload yet.
func metaCell(m exp.CellMeta) BatchCell {
	return BatchCell{Seq: m.Seq, Kind: m.Kind, Workload: m.Workload, Config: m.Config}
}

// handleBatch serves POST /v1/batch: the request resolved through the
// campaign table, then streamed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	camp, err := ReadCampaign(http.MaxBytesReader(w, r.Body, MaxCampaignBodyBytes), s.memo)
	if err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	camp.stream(s, w, r)
}

// stream fans the requested cells over the worker semaphore and streams
// each result as an NDJSON line the moment it completes, then a trailer.
// Admission is per cell — every cell holds one semaphore slot while
// simulating, the same slot pool the unary endpoints draw from, so one
// batch request cannot starve /v1/run beyond its fair share of workers.
// When the client disconnects (or the batch deadline passes) no new
// cells are dispatched; in-flight cells finish, release their slots and
// runtimes, and their lines are dropped.
func (c campaign[C]) stream(s *Server, w http.ResponseWriter, r *http.Request) {
	cells := c.cells
	s.metrics.batch["streams"].Add(1)
	ctx := r.Context()

	// Count the cells already resident in the memo store before the first
	// byte is written: the MemoHeader is a warm-set preview (Peek-based, no
	// counter effects), not a promise — an entry can still be evicted
	// between the probe and the cell's turn.
	warm := 0
	for _, i := range cells {
		if c.ProbeCell(i) {
			warm++
		}
	}

	w.Header().Set("Content-Type", NDJSONContentType)
	w.Header().Set(CellsHeader, strconv.Itoa(len(cells)))
	w.Header().Set(MemoHeader, strconv.Itoa(warm))
	w.Header().Set(WorkersHeader, strconv.Itoa(s.cfg.Workers))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var mu sync.Mutex // serializes line writes
	emit := func(line []byte) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return // client gone: stop writing, let workers drain
		}
		w.Write(line)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}

	var completed, failed atomic.Int64
	var next atomic.Int64
	workers := s.cfg.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for n := 0; n < workers; n++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(cells) || ctx.Err() != nil {
					return
				}
				// Memoized cells are replayed from the store without taking a
				// semaphore slot: a hit is a map lookup plus a JSON encode —
				// no simulation, no rt.Pool checkout — so it must not queue
				// behind real work (or displace it from admission control).
				if v, ok := c.LookupCell(cells[k]); ok {
					cell := metaCell(c.Meta(cells[k]))
					setPayload(&cell, v)
					s.metrics.batch["cells"].Add(1)
					completed.Add(1)
					emit(mustJSON(cell))
					continue
				}
				// One semaphore slot per cell: batch cells queue behind the
				// same admission control as every other simulation.
				select {
				case s.sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				cell := c.computeRecovered(s, cells[k])
				<-s.sem
				s.metrics.batch["cells"].Add(1)
				if cell.Error != "" {
					failed.Add(1)
					s.metrics.batch["cell_errors"].Add(1)
				} else {
					completed.Add(1)
				}
				emit(mustJSON(cell))
			}
		}()
	}
	wg.Wait()

	if ctx.Err() != nil {
		s.metrics.batch["cancelled"].Add(1)
		return // no trailer: the stream is truncated by the disconnect
	}
	emit(mustJSON(BatchTrailer{
		Done:      true,
		Cells:     len(cells),
		Completed: int(completed.Load()),
		Failed:    int(failed.Load()),
	}))
}

// computeRecovered computes one campaign cell, converting an escaped
// panic into an error cell — the streaming twin of runRecovered: a
// simulator bug a cell tickles costs that cell only, never the stream or
// the daemon.
func (c campaign[C]) computeRecovered(s *Server, i int) (cell BatchCell) {
	cell = metaCell(c.Meta(i))
	defer func() {
		if r := recover(); r != nil {
			s.metrics.admission["internal_panics"].Add(1)
			cell.Result, cell.Chaos = nil, nil
			cell.Error = fmt.Sprintf("internal error: recovered panic: %v", r)
		}
	}()
	v, err := c.ComputeCell(i)
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	setPayload(&cell, v)
	return cell
}

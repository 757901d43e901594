package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"infat/internal/exp"
	"infat/internal/juliet"
	"infat/internal/machine"
	"infat/internal/memo"
	"infat/internal/minic"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// Trap classes: the service's verdict on a trapped run.
const (
	trapClassSpatial  = "spatial"  // an In-Fat Pointer detection (poison / bounds)
	trapClassTemporal = "temporal" // a generation-tagging detection (UAF / double free)
	trapClassFuel     = "fuel"     // execution budget exhausted (resource trap)
	trapClassInternal = "internal" // recovered simulator panic (a bug, never guest behavior)
	trapClassOther    = "other"    // metadata/memory/alloc trap or non-trap runtime fault
	trapClassNone     = "none"     // the run completed clean
)

// CacheHeader carries the cache disposition of a /v1/run response ("hit"
// or "miss"). It is a header, not a body field, so that response bytes
// for a given (source, mode, fuel) are identical whether simulated or
// replayed from cache — and identical to a local RunC of the same input.
const CacheHeader = "X-Ifp-Cache"

// MemoHeader carries the memo-store disposition of a response. Unary
// endpoints send "hit" or "miss"; the streaming batch endpoints send the
// number of requested cells already warm in the store at stream start.
// Like CacheHeader it is a header, never a body field — payload bytes
// are identical either way.
const MemoHeader = "X-Ifp-Memo"

// runResult is the memoized value of one /v1/run response: the HTTP
// status and the exact body bytes, replayed verbatim on a hit. It
// snapshots as JSON (Body base64-encodes under encoding/json).
type runResult struct {
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

func init() {
	memo.RegisterKind(memo.KindRun, memo.Codec{Decode: func(p []byte) (any, error) {
		var r runResult
		if err := json.Unmarshal(p, &r); err != nil {
			return nil, err
		}
		return &r, nil
	}})
}

// RunRequest is the POST /v1/run body: compile-and-run a MiniC program.
type RunRequest struct {
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// Mode is the run configuration: baseline, subheap (default),
	// wrapped, hybrid, or ifp-temporal.
	Mode string `json:"mode,omitempty"`
	// Fuel overrides the server's per-run cycle budget. 0 keeps the
	// server default; non-zero values are clamped to the server's MaxFuel
	// cap, so requests can neither disable nor inflate the budget. The
	// response's Fuel field reports the effective budget.
	Fuel uint64 `json:"fuel,omitempty"`
}

// TrapInfo describes why a run stopped early.
type TrapInfo struct {
	// Class is the service verdict: spatial, temporal, fuel, or other.
	Class string `json:"class"`
	// Kind is the machine trap kind (poisoned-pointer, bounds, fuel,
	// metadata, memory); empty for non-trap runtime faults.
	Kind string `json:"kind,omitempty"`
	// Message is the full error, including the MiniC source line.
	Message string `json:"message"`
}

// RunResponse is the POST /v1/run result.
type RunResponse struct {
	Mode string `json:"mode"`
	// Fuel is the effective cycle budget the run executed under.
	Fuel   uint64    `json:"fuel"`
	Output []int64   `json:"output"`
	Exit   int64     `json:"exit"`
	Trap   *TrapInfo `json:"trap,omitempty"`
	// Counters is the machine's dynamic event counts, up to the trap for
	// trapped runs.
	Counters machine.Counters `json:"counters"`
}

// JulietRequest is the POST /v1/juliet body: run one generated case.
type JulietRequest struct {
	// Case is a case name from GET /v1/juliet.
	Case string `json:"case"`
	// Mode defaults to subheap.
	Mode string `json:"mode,omitempty"`
}

// JulietResponse is the POST /v1/juliet result.
type JulietResponse struct {
	Case    string `json:"case"`
	CWE     string `json:"cwe"`
	Bad     bool   `json:"bad"`
	Mode    string `json:"mode"`
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
}

// JulietListResponse is the GET /v1/juliet result.
type JulietListResponse struct {
	Count int      `json:"count"`
	Cases []string `json:"cases"`
}

// WorkloadRequest is the POST /v1/workload body: run one cell of the
// §5.2 evaluation grid.
type WorkloadRequest struct {
	// Name is a workload name from workloads.All (e.g. "treeadd").
	Name string `json:"name"`
	// Mode defaults to subheap.
	Mode string `json:"mode,omitempty"`
	// NoPromote selects the no-promote variant of an instrumented mode.
	NoPromote bool `json:"no_promote,omitempty"`
	// Scale defaults to 1; bounded by MaxScale.
	Scale int `json:"scale,omitempty"`
}

// WorkloadResponse is the POST /v1/workload result — the same
// observables an exp grid cell records.
type WorkloadResponse struct {
	Name      string           `json:"name"`
	Suite     string           `json:"suite"`
	Mode      string           `json:"mode"`
	NoPromote bool             `json:"no_promote"`
	Scale     int              `json:"scale"`
	Checksum  uint64           `json:"checksum"`
	Footprint uint64           `json:"footprint"`
	L1DMisses uint64           `json:"l1d_misses"`
	Counters  machine.Counters `json:"counters"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

var errSourceTooLarge = errors.New("source exceeds the server's size limit")

// runJob is a validated, defaulted run request.
type runJob struct {
	source string
	mode   rt.Mode
	fuel   uint64
}

// decodeRunRequest parses and validates a /v1/run body: strict JSON
// (unknown fields and trailing data rejected), non-empty bounded source,
// known mode. It returns the job with the mode resolved but the fuel
// default (0) still unapplied, so the decoder is a pure function of the
// bytes — the property the fuzz target checks.
func decodeRunRequest(r io.Reader, maxSource int) (runJob, error) {
	var req RunRequest
	if err := decodeStrict(r, &req); err != nil {
		return runJob{}, err
	}
	if req.Source == "" {
		return runJob{}, errors.New("source must be non-empty")
	}
	if len(req.Source) > maxSource {
		return runJob{}, errSourceTooLarge
	}
	mode, err := parseModeDefault(req.Mode)
	if err != nil {
		return runJob{}, err
	}
	return runJob{source: req.Source, mode: mode, fuel: req.Fuel}, nil
}

// decodeStrict decodes one JSON object, rejecting unknown fields and
// trailing data.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data after request object")
	}
	return nil
}

// parseModeDefault resolves a request mode string, defaulting to subheap.
func parseModeDefault(s string) (rt.Mode, error) {
	if s == "" {
		return rt.Subheap, nil
	}
	return rt.ParseMode(s)
}

// runKey is the memo key: content hash of the program plus every knob
// that changes the result — the same (sha256(source), mode, fuel) triple
// the result LRU has always keyed on, in canonical digest form.
func runKey(job runJob) memo.Digest {
	return memo.RunDigest(memo.SourceDigest(job.source), job.mode.String(), job.fuel)
}

// classifyTrap maps a run error to its service trap class and machine
// trap kind (empty kind for non-trap faults like division by zero).
func classifyTrap(err error) (class, kind string) {
	var t *machine.Trap
	if !errors.As(err, &t) {
		return trapClassOther, ""
	}
	switch t.Kind {
	case machine.TrapPoison, machine.TrapBounds:
		return trapClassSpatial, t.Kind.String()
	case machine.TrapTemporal:
		return trapClassTemporal, t.Kind.String()
	case machine.TrapFuel:
		return trapClassFuel, t.Kind.String()
	case machine.TrapInternal:
		return trapClassInternal, t.Kind.String()
	}
	return trapClassOther, t.Kind.String()
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// The body cap is sized for the worst-case JSON escaping of a
	// maximum-size source (every byte a \u00XX sequence), so no source
	// decodeRunRequest would accept is rejected for its encoding alone.
	body := http.MaxBytesReader(w, r.Body, 6*int64(s.cfg.MaxSourceBytes)+64<<10)
	job, err := decodeRunRequest(body, s.cfg.MaxSourceBytes)
	if err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, decodeStatus(err), err)
		return
	}
	// Default and clamp the budget before the cache key is computed, so
	// every over-limit request shares the MaxFuel entry. The clamp is the
	// DoS guarantee: client fuel can never exceed the server's cap, so a
	// worker slot is always released in bounded time.
	if job.fuel == 0 {
		job.fuel = s.cfg.Fuel
	} else if job.fuel > s.cfg.MaxFuel {
		job.fuel = s.cfg.MaxFuel
	}

	e, leader := s.memo.StartOrJoin(runKey(job), memo.KindRun)
	if !leader {
		// Coalesced onto an in-flight identical submission — or joined an
		// already-complete entry, whose Ready is pre-closed. Wait for the
		// published bytes (or give up at our own deadline — never
		// re-simulate). Only a kept (memoized, deterministic) result is
		// reported as a hit; a coalesced error is passed through as a
		// miss.
		select {
		case <-e.Ready():
			state := "miss"
			if e.Kept() {
				state = "hit"
			}
			res := e.Value().(*runResult)
			writeRaw(w, res.Status, res.Body, state)
		case <-r.Context().Done():
			s.metrics.admission["deadline"].Add(1)
			s.writeBusy(w, http.StatusGatewayTimeout,
				errorBody("deadline exceeded waiting for in-flight identical submission"), "")
		}
		return
	}
	// Safety net: if this leader exits without publishing (a panic
	// recovered by net/http), wake the followers with an error and free
	// the key. A no-op on the normal paths below — Finish is idempotent.
	abandoned := &runResult{Status: http.StatusInternalServerError,
		Body: errorBody("internal error: request abandoned")}
	defer s.memo.Finish(e, abandoned, nil, false)

	status, respBody, ok := s.dispatch(r.Context(), func() (int, []byte) {
		return s.executeRun(job)
	})
	res := &runResult{Status: status, Body: respBody}
	if !ok {
		// Admission or deadline failure: non-deterministic, so publish
		// to any waiting followers but drop the entry from the store.
		s.memo.Finish(e, res, nil, false)
		s.writeBusy(w, status, respBody, "miss")
		return
	}
	// Simulation results and compile verdicts are deterministic in
	// (source, mode, fuel): keep them.
	s.memo.Finish(e, res, mustJSON(res), true)
	writeRaw(w, status, respBody, "miss")
}

// executeRun performs the simulation for one run job and renders the
// response bytes. Runs on a worker slot.
func (s *Server) executeRun(job runJob) (int, []byte) {
	out, exit, counters, err := minic.ExecuteBudget(job.source, job.mode, job.fuel)
	if err != nil {
		var re *minic.RunError
		if !errors.As(err, &re) {
			// Front-end failure (parse/compile/setup): the program never
			// ran, so there is no verdict to report.
			return http.StatusUnprocessableEntity, errorBody(err.Error())
		}
	}
	if out == nil {
		out = []int64{}
	}
	resp := RunResponse{
		Mode:     job.mode.String(),
		Fuel:     job.fuel,
		Output:   out,
		Exit:     exit,
		Counters: counters,
	}
	class := trapClassNone
	if err != nil {
		var kind string
		class, kind = classifyTrap(err)
		resp.Trap = &TrapInfo{Class: class, Kind: kind, Message: err.Error()}
	}
	s.metrics.traps[class].Add(1)
	b, merr := json.Marshal(resp)
	if merr != nil {
		return http.StatusInternalServerError, errorBody(merr.Error())
	}
	return http.StatusOK, b
}

func (s *Server) handleJuliet(w http.ResponseWriter, r *http.Request) {
	var req JulietRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 64<<10), &req); err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mode, err := parseModeDefault(req.Mode)
	if err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, ok := s.julietCases[req.Case]
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown case %q (GET /v1/juliet lists the %d cases)", req.Case, len(s.julietNames)))
		return
	}
	status, body, ok := s.dispatch(r.Context(), func() (int, []byte) {
		o := juliet.RunCase(c, mode)
		return http.StatusOK, mustJSON(JulietResponse{
			Case:    c.Name,
			CWE:     c.CWE,
			Bad:     c.Bad,
			Mode:    mode.String(),
			Verdict: o.Verdict.String(),
			Detail:  o.Detail,
		})
	})
	if !ok {
		s.writeBusy(w, status, body, "")
		return
	}
	writeRaw(w, status, body, "")
}

func (s *Server) handleJulietList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JulietListResponse{Count: len(s.julietNames), Cases: s.julietNames})
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	var req WorkloadRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 64<<10), &req); err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mode, err := parseModeDefault(req.Mode)
	if err != nil {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if req.Scale < 1 || req.Scale > MaxScale {
		s.metrics.admission["bad_request"].Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("scale %d out of range [1, %d]", req.Scale, MaxScale))
		return
	}
	wl, ok := workloads.ByName(req.Name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown workload %q", req.Name))
		return
	}
	renderResponse := func(m *exp.ModeResult) []byte {
		return mustJSON(WorkloadResponse{
			Name:      wl.Name,
			Suite:     wl.Suite,
			Mode:      mode.String(),
			NoPromote: req.NoPromote,
			Scale:     req.Scale,
			Checksum:  m.Checksum,
			Footprint: m.Footprint,
			L1DMisses: m.L1DMisses,
			Counters:  m.Counters,
		})
	}
	// A warm cell — computed by an earlier /v1/workload call or a batch
	// stream's perf cell, which share the same canonical cell digests — is
	// served instantly: no worker slot, no runtime checkout. Memory cells
	// run footprint-only and live in their own footprint domain, so they
	// never answer here.
	if m, ok := exp.LookupOne(s.memo, wl, exp.ModeConfig(mode, req.NoPromote), req.Scale); ok {
		writeRaw(w, http.StatusOK, renderResponse(m), "hit")
		return
	}
	status, body, ok := s.dispatch(r.Context(), func() (int, []byte) {
		m, err := exp.ComputeOne(s.memo, wl, exp.ModeConfig(mode, req.NoPromote), req.Scale)
		if err != nil {
			return http.StatusInternalServerError, errorBody(err.Error())
		}
		return http.StatusOK, renderResponse(m)
	})
	if !ok {
		s.writeBusy(w, status, body, "miss")
		return
	}
	writeRaw(w, status, body, "miss")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// decodeStatus maps a decode failure to its HTTP status.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.Is(err, errSourceTooLarge) || errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func statusMessage(status int) string {
	switch status {
	case http.StatusServiceUnavailable:
		return "server at capacity: deadline exceeded before a worker was available"
	case http.StatusGatewayTimeout:
		return "deadline exceeded during simulation"
	}
	return http.StatusText(status)
}

func errorBody(msg string) []byte { return mustJSON(ErrorResponse{Error: msg}) }

// RetryAfterHeader is the standard back-pressure hint set on 503/504
// responses; the bundled client honors it over its computed backoff.
const RetryAfterHeader = "Retry-After"

// retryAfterSeconds is the Retry-After hint on 503/504 responses: long
// enough for a queue full of bounded simulations to drain a slot, short
// enough that a backing-off client returns promptly.
const retryAfterSeconds = "1"

// writeBusy writes an admission or deadline failure: the structured JSON
// error body plus the Retry-After hint, so a saturated server tells
// clients both what happened and when to come back.
func (s *Server) writeBusy(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set(RetryAfterHeader, retryAfterSeconds)
	writeRaw(w, status, body, cacheState)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All response types are plain data; a marshal failure is a
		// programming error.
		panic(err)
	}
	return b
}

func writeJSON(w http.ResponseWriter, status int, v any) { writeRaw(w, status, mustJSON(v), "") }

func writeError(w http.ResponseWriter, status int, err error) {
	writeRaw(w, status, errorBody(err.Error()), "")
}

// writeRaw sends pre-rendered JSON; cacheState, when non-empty, is
// exposed via both CacheHeader (the name clients have honoured since the
// result LRU) and MemoHeader (the unified store's name) — one store, two
// header aliases.
func writeRaw(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set(CacheHeader, cacheState)
		w.Header().Set(MemoHeader, cacheState)
	}
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

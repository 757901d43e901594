// Package server is the analysis-as-a-service layer over the In-Fat
// Pointer simulator: a hardened HTTP/JSON daemon (cmd/ifp-serve) that
// accepts MiniC programs, Juliet cases, and evaluation campaigns over the
// network and answers with the spatial-safety verdict, trap
// classification, and machine counters a local run would produce.
//
// Hardening, because the guest programs are untrusted input:
//
//   - Admission control: simulations run under a bounded worker pool
//     (one semaphore slot per worker, internal/pool's sizing rule), so a
//     burst cannot fork unbounded simulator goroutines. Waiting is
//     bounded by the request deadline.
//   - Execution budget: every run carries a cycle fuel limit
//     (machine.FuelLimit); a guest infinite loop trips a typed resource
//     trap instead of pinning a worker. Request-supplied fuel is clamped
//     to the server's MaxFuel cap, so a client cannot restore the
//     unbounded behaviour the budget exists to prevent.
//   - Request deadlines: each request gets a context deadline; if it
//     expires the client receives 503/504 while the worker, bounded by
//     fuel, finishes and frees its slot in the background.
//   - Memoization: one content-addressed store (internal/memo) backs
//     every repeated-work fast path. /v1/run responses are keyed by
//     (sha256(source), mode, fuel) with request coalescing; campaign
//     cells are keyed by their canonical coordinates, so a cell any
//     campaign has computed — a one-cell request, a report, or the
//     temporal plan sharing the report's spatial cells — is replayed
//     everywhere without re-simulation, a worker slot, or a runtime
//     checkout. Hit state is surfaced only via headers (X-Ifp-Cache,
//     X-Ifp-Memo) and /metrics, never in payload bytes.
//
// Endpoints: POST /v1/run, POST /v1/juliet (GET lists cases), the
// streaming campaign endpoint POST /v1/batch (every campaign, named by
// the request's plan), GET /healthz, GET /metrics.
package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"infat/internal/juliet"
	"infat/internal/memo"
	"infat/internal/pool"
)

// Defaults for Config zero values.
const (
	DefaultRequestTimeout = 30 * time.Second
	// DefaultCacheEntries bounds the unified memo store: sized for several
	// full campaigns (the default batch plan is ~200 cells, the chaos
	// campaign 216) plus a working set of /v1/run entries, so one batch
	// request cannot evict another campaign's warm cells.
	DefaultCacheEntries = 2048
	// DefaultFuel is the per-run cycle budget when a request does not set
	// its own: generous for every real program the repo runs (the whole
	// Juliet suite stays far below it per case) while bounding an
	// infinite loop to a few seconds of wall clock.
	DefaultFuel = 200_000_000
	// DefaultMaxFuel caps the budget a request may ask for: ten defaults,
	// enough headroom for any legitimately long run while keeping the
	// worst-case worker hold time bounded to tens of seconds.
	DefaultMaxFuel        = 10 * DefaultFuel
	DefaultMaxSourceBytes = 1 << 20
	// DefaultBatchTimeout is the per-request deadline of the streaming
	// batch endpoint, raised to RequestTimeout if smaller: a whole
	// campaign per request, so the budget is a multiple of the unary
	// deadline rather than sharing it.
	DefaultBatchTimeout = 5 * time.Minute
)

// Config parameterizes a Server. The zero value is a working production
// configuration; every field has a documented default.
type Config struct {
	// Workers caps concurrent simulations (admission control). <= 0
	// selects GOMAXPROCS, the throughput optimum for the CPU-bound
	// simulator (see DESIGN.md "Concurrency model").
	Workers int
	// RequestTimeout is the per-request context deadline (0 =
	// DefaultRequestTimeout). It covers queueing and simulation.
	RequestTimeout time.Duration
	// CacheEntries bounds the unified memo store — run results and
	// memoized campaign cells share it (0 = DefaultCacheEntries).
	CacheEntries int
	// MemoDir, when non-empty, names a directory whose memo snapshot is
	// loaded at construction and can be saved with SaveMemo — warm starts
	// across restarts. A corrupt or version-skewed snapshot is detected
	// and ignored (the server starts cold), never trusted.
	MemoDir string
	// Fuel is the cycle budget applied to runs that do not request their
	// own (0 = DefaultFuel). The budget is what guarantees a guest
	// infinite loop cannot hold a worker.
	Fuel uint64
	// MaxFuel caps the budget a request may set (0 = DefaultMaxFuel,
	// raised to Fuel if smaller). Request fuel above the cap is clamped,
	// never honoured — without the cap a client could name an effectively
	// unbounded budget and pin workers indefinitely.
	MaxFuel uint64
	// MaxSourceBytes bounds submitted program size (0 =
	// DefaultMaxSourceBytes).
	MaxSourceBytes int
}

func (c Config) withDefaults() Config {
	c.Workers = pool.Workers(c.Workers)
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.Fuel == 0 {
		c.Fuel = DefaultFuel
	}
	if c.MaxFuel == 0 {
		c.MaxFuel = DefaultMaxFuel
	}
	// The operator's default budget is always admissible.
	if c.MaxFuel < c.Fuel {
		c.MaxFuel = c.Fuel
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = DefaultMaxSourceBytes
	}
	return c
}

// Server is the service: an http.Handler plus the worker semaphore,
// result cache, metrics, and the interned Juliet suite. Construct with
// New; the zero value is not usable.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     chan struct{}
	memo    *memo.Store
	metrics *metrics

	julietNames []string
	julietCases map[string]juliet.Case
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		sem:         make(chan struct{}, cfg.Workers),
		memo:        memo.NewStore(cfg.CacheEntries),
		metrics:     newMetrics(),
		julietCases: make(map[string]juliet.Case),
	}
	if cfg.MemoDir != "" {
		// A bad snapshot can only cost warmth: log-free best effort, the
		// store keeps whatever valid prefix loaded.
		_ = s.memo.LoadSnapshot(cfg.MemoDir)
	}
	for _, c := range juliet.Generate() {
		s.julietNames = append(s.julietNames, c.Name)
		s.julietCases[c.Name] = c
	}
	s.mux.HandleFunc("POST /v1/run", s.instrument("run", true, s.handleRun))
	s.mux.HandleFunc("POST /v1/juliet", s.instrument("juliet", true, s.handleJuliet))
	s.mux.HandleFunc("GET /v1/juliet", s.instrument("juliet", false, s.handleJulietList))
	s.mux.HandleFunc("POST "+BatchPath, s.instrumentTimeout("batch", max(DefaultBatchTimeout, cfg.RequestTimeout), s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// MemoStore returns the server's unified memo store (never nil).
func (s *Server) MemoStore() *memo.Store { return s.memo }

// SaveMemo persists the memo store to the configured MemoDir (no-op
// without one) — called by ifp-serve on graceful shutdown.
func (s *Server) SaveMemo() error {
	if s.cfg.MemoDir == "" {
		return nil
	}
	return s.memo.SaveSnapshot(s.cfg.MemoDir)
}

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// instrument wraps a handler with its endpoint's request counter, the
// in-flight gauge, the latency histogram, and — for simulation endpoints
// — the per-request deadline.
func (s *Server) instrument(endpoint string, deadline bool, h http.HandlerFunc) http.HandlerFunc {
	timeout := time.Duration(0)
	if deadline {
		timeout = s.cfg.RequestTimeout
	}
	return s.instrumentTimeout(endpoint, timeout, h)
}

// instrumentTimeout is instrument with an explicit deadline (0 = none);
// the streaming batch endpoint runs under its own, longer budget. A
// propagated client deadline (DeadlineHeader) clamps the configured
// timeout down — never up — so the worker gives up the moment the
// original caller would, instead of simulating into the void. The
// endpoint's counter is resolved here, once per route.
func (s *Server) instrumentTimeout(endpoint string, timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	counter := s.metrics.requests[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		s.metrics.inFlight.Add(1)
		start := time.Now()
		defer func() {
			s.metrics.inFlight.Add(-1)
			s.metrics.observeLatency(time.Since(start))
		}()
		effective := timeout
		if d := ParseDeadlineHeader(r.Header.Get(DeadlineHeader)); d > 0 && timeout > 0 && d < timeout {
			effective = d
			s.metrics.admission["deadline_propagated"].Add(1)
		}
		if effective > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), effective)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// dispatch runs job on a worker slot under ctx. It returns the job's
// (status, body) or an HTTP error status when the deadline expires
// first: 503 while still queued (admission rejection), 504 once running.
// Failure bodies are the same structured JSON errors the handlers write
// everywhere else, so an admission rejection is machine-readable — pair
// them with writeBusy, which adds the Retry-After hint. A job that
// outlives its request keeps its slot until it finishes — bounded by the
// fuel budget — so the semaphore always reflects real load.
func (s *Server) dispatch(ctx context.Context, job func() (int, []byte)) (status int, body []byte, ok bool) {
	// Checked before the select so an already-expired deadline is always
	// a rejection, even when a worker slot happens to be free.
	if ctx.Err() != nil {
		s.metrics.admission["rejected"].Add(1)
		return http.StatusServiceUnavailable, errorBody(statusMessage(http.StatusServiceUnavailable)), false
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.metrics.admission["rejected"].Add(1)
		return http.StatusServiceUnavailable, errorBody(statusMessage(http.StatusServiceUnavailable)), false
	}
	type result struct {
		status int
		body   []byte
	}
	ch := make(chan result, 1)
	go func() {
		defer func() { <-s.sem }()
		st, b := s.runRecovered(job)
		ch <- result{st, b}
	}()
	select {
	case res := <-ch:
		return res.status, res.body, true
	case <-ctx.Done():
		s.metrics.admission["deadline"].Add(1)
		return http.StatusGatewayTimeout, errorBody(statusMessage(http.StatusGatewayTimeout)), false
	}
}

// runRecovered executes a worker job, converting an escaped panic into a
// typed 500 instead of killing the daemon: guest programs are untrusted
// input, so a simulator bug one of them tickles must cost that request
// only. Recovered panics are counted (internal_panics in /metrics) —
// every one is a simulator bug worth a report.
func (s *Server) runRecovered(job func() (int, []byte)) (status int, body []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.admission["internal_panics"].Add(1)
			status = http.StatusInternalServerError
			body = errorBody(fmt.Sprintf("internal error: recovered panic: %v", r))
		}
	}()
	return job()
}

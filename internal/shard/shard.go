// Package shard is the scale-out front tier over a fleet of ifp-serve
// backends (cmd/ifp-shard): one HTTP endpoint that consistently hashes
// requests across N backend processes and merges their answers.
//
// Routing is by content, not by connection: /v1/run routes on
// sha256(source), /v1/juliet on the case name, and /v1/workload on the
// workload name. Consistent hashing with virtual nodes means every
// backend sees a stable subset of the key space, so each backend's
// program interner and result LRU stay hot on their own slice of the
// workload — the property that makes N backends behave like one big
// cache rather than N cold ones. The batch endpoints home each campaign
// cell at the ring owner of its stable plan key (exp.Plan.Key), balance
// the campaign's work by letting idle backends take other backends'
// unstarted cells, and send a cell the shard has seen served back to
// the backend that served it (batch.go, scatter.go).
//
// Each backend's health is one count of consecutive failures, fed by
// health probes, proxied requests and campaign relays alike. A backend
// whose count reaches DownAfter is drained — new requests route past
// it, in-flight batch cells it never delivered are reassigned to the
// survivors — and it rejoins on its next success, normally the first
// healthy probe.
package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"infat/internal/memo"
	"infat/internal/server"
	"infat/internal/splitmix"
)

// ringReplicas is the virtual-node count per backend on the hash ring:
// enough points that keys spread evenly over a small fleet.
const ringReplicas = 64

// maxBodyBytes bounds proxied unary request bodies.
const maxBodyBytes = 8 << 20

// relayTimeout bounds one backend relay stream during a campaign
// fan-out, so a backend that accepts the campaign and then stalls (a
// blackhole, not a crash) is cut off and its cells reassigned rather
// than hanging the whole merged stream when no other backend is left to
// hedge to.
const relayTimeout = 2 * time.Minute

// Defaults for Config zero values.
const (
	DefaultHealthInterval = time.Second
	DefaultHealthTimeout  = 2 * time.Second
	DefaultDownAfter      = 2
	// DefaultSeed seeds the shard's deterministic jitter stream.
	DefaultSeed = 1
)

// Config parameterizes a Shard. Backends is required; every other zero
// value takes the documented default.
type Config struct {
	// Backends are the ifp-serve base URLs, e.g.
	// ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]. At least one is
	// required; order is irrelevant to routing (the ring hashes URLs).
	Backends []string
	// HealthInterval is the probe period (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (0 = DefaultHealthTimeout).
	HealthTimeout time.Duration
	// DownAfter is the consecutive failed probes or requests that mark a
	// backend down (0 = DefaultDownAfter).
	DownAfter int
	// Seed seeds the shard's deterministic jitter (probe
	// desynchronization). 0 = DefaultSeed, so runs reproduce by default.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = DefaultHealthTimeout
	}
	if c.DownAfter <= 0 {
		c.DownAfter = DefaultDownAfter
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// backend is one ifp-serve process behind the ring.
type backend struct {
	url    string
	client *server.Client
	// fails counts consecutive failures: failed health probes, proxied
	// requests that died in transport, and failed campaign relays. A
	// request-side failure counts as much as a probe's, so a backend that
	// passes its probes but fails real traffic drains too, and a crashed
	// one starts draining before the next probe tick. Any success resets
	// it.
	fails     atomic.Int32
	downAfter int32
}

// isUp is the routing predicate of the unary and batch paths: the
// backend has fewer than DownAfter consecutive failures.
func (b *backend) isUp() bool { return b.fails.Load() < b.downAfter }

// Shard is the front tier: an http.Handler serving the same API surface
// as one ifp-serve, fanned over Config.Backends. Construct with New;
// Close stops the health loop.
type Shard struct {
	cfg      Config
	backends []*backend
	ring     *ring
	mux      *http.ServeMux
	metrics  server.Counters // reported under "shard" in /metrics

	// dir maps the digest of every cell a backend has delivered to that
	// backend, which holds it in its memo store; a campaign pins those
	// cells to it. Keys are digests of cells an accepted campaign request
	// enumerates, so dir is bounded by construction: at MaxScale, every
	// /v1/batch and /v1/chaos request together enumerates 2,160 distinct
	// cells (432 perf, 864 memory, 864 chaos).
	dirMu sync.Mutex
	dir   map[memo.Digest]int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Shard over cfg.Backends and starts its health loop.
// Backends start optimistically up: a fleet that is still booting
// serves as soon as the first probe (or first proxied request) settles
// the truth, and unary failover covers the window.
func New(cfg Config) (*Shard, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("shard: at least one backend required")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	s := &Shard{cfg: cfg, mux: http.NewServeMux(), dir: make(map[memo.Digest]int), stop: make(chan struct{}),
		metrics: server.NewCounters(
			"proxied",          // unary requests forwarded
			"failovers",        // unary retries on a different backend
			"no_backend",       // requests failed with no backend available
			"batch_streams",    // batch and chaos fan-outs started
			"batch_cells",      // cells merged into client streams
			"reassigned_cells", // cells re-scattered after a backend loss
			"stolen_cells",     // cells run by a backend other than their home queue's
			"hedged_cells",     // straggler cells re-dispatched to a second backend
			"shed_cells",       // cells emitted as error cells (no backend could run them)
			"corrupt_lines",    // backend stream lines rejected by validation
			"dup_suppressed",   // duplicate cell lines dropped by seq dedup
			"transitions",      // backend failure counts crossing DownAfter, either way
		)}
	for _, u := range cfg.Backends {
		if seen[u] {
			return nil, fmt.Errorf("shard: duplicate backend %q", u)
		}
		seen[u] = true
		s.backends = append(s.backends, &backend{url: u, client: server.NewClient(u), downAfter: int32(min(cfg.DownAfter, math.MaxInt32))})
	}
	s.ring = newRing(len(s.backends), ringReplicas, func(i int) string { return s.backends[i].url })

	// Unary routing keys are namespaced so a workload named like a Juliet
	// case still owns its own ring arc. The case list is identical on
	// every backend (the generated suite), so any up backend may answer.
	s.mux.HandleFunc("POST /v1/run", unary(s, "/v1/run", func(q struct {
		Source string `json:"source"`
	}) string {
		return runRouteKey(q.Source)
	}))
	s.mux.HandleFunc("POST /v1/juliet", unary(s, "/v1/juliet", func(q struct {
		Case string `json:"case"`
	}) string {
		return "juliet|" + q.Case
	}))
	s.mux.HandleFunc("GET /v1/juliet", unary(s, "/v1/juliet", func(struct{}) string { return "juliet-list" }))
	s.mux.HandleFunc("POST /v1/workload", unary(s, "/v1/workload", func(q struct {
		Name string `json:"name"`
	}) string {
		return "workload|" + q.Name
	}))
	for _, route := range server.CampaignRoutes {
		s.mux.HandleFunc("POST "+route.Path, s.handleCampaign(route))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	// One probe loop per backend, each with its own seeded jitter stream,
	// so probes never tick in lockstep across the fleet.
	for i := range s.backends {
		s.wg.Add(1)
		go s.probeLoop(i, s.backends[i])
	}
	return s, nil
}

// Close stops the health loop. In-flight requests are unaffected.
func (s *Shard) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// ServeHTTP dispatches to the front-tier handlers. A propagated client
// deadline (server.DeadlineHeader) becomes this request's context
// deadline, so every outgoing call the handlers make re-stamps the
// shrinking remainder downstream — the shard is a hop in the deadline
// chain, not a reset point.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := server.ParseDeadlineHeader(r.Header.Get(server.DeadlineHeader)); d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// probeLoop health-checks one backend forever. Each backend has its own
// loop and jitter stream: the delay between probes is the interval plus
// seeded jitter, doubled per consecutive failure (see probeDelay), so
// fleet probes are desynchronized and a dead backend is probed with
// backoff instead of hammered every tick.
func (s *Shard) probeLoop(idx int, b *backend) {
	defer s.wg.Done()
	rng := splitmix.New(s.cfg.Seed + uint64(idx)*0x9E3779B97F4A7C15)
	t := time.NewTimer(probeDelay(s.cfg.HealthInterval, 0, rng))
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.probe(b)
		t.Reset(probeDelay(s.cfg.HealthInterval, int(b.fails.Load()), rng))
	}
}

// probeDelay is the wait before a backend's next health probe: the base
// interval, doubled per consecutive failure up to 8x (a flapping or
// dead backend is probed less aggressively), plus a seeded jitter of up
// to a quarter interval. The jitter desynchronizes the per-backend
// probe loops — without it every loop ticks in lockstep and the fleet
// absorbs N simultaneous probes every interval, a thundering herd that
// grows with fleet size and lands exactly when a recovering backend is
// most fragile.
func probeDelay(base time.Duration, fails int, rng *splitmix.Stream) time.Duration {
	d := base << min(fails, 3)
	if j := int(base / 4); j > 0 {
		d += time.Duration(rng.Intn(j))
	}
	return d
}

func (s *Shard) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HealthTimeout)
	defer cancel()
	probe := *b.client
	probe.NoRetry = true // the loop itself is the retry policy
	if err := probe.Healthz(ctx); err != nil {
		s.noteFailure(b)
		return
	}
	s.noteSuccess(b)
}

// noteSuccess records one successful probe, proxied exchange or relay:
// the failure streak resets, and a drained backend rejoins the ring.
func (s *Shard) noteSuccess(b *backend) {
	if b.fails.Swap(0) >= b.downAfter {
		s.metrics["transitions"].Add(1)
	}
}

// noteFailure records one failed probe, proxied transport error or
// failed relay; the failure that brings the streak to DownAfter drains
// the backend.
func (s *Shard) noteFailure(b *backend) {
	if b.fails.Add(1) == b.downAfter {
		s.metrics["transitions"].Add(1)
	}
}

// runRouteKey is /v1/run's routing key: the program source's sha256.
func runRouteKey(source string) string {
	h := sha256.Sum256([]byte(source))
	return fmt.Sprintf("run|%x", h)
}

// unary proxies one single-request endpoint to the ring owner of
// key(req). It decodes only the routing field of the bounded body into
// T; the owning backend performs the strict validation, so shard and
// backend never disagree on what a valid request is. A GET carries no
// body and routes on the key of T's zero value.
func unary[T any](s *Shard, path string, key func(T) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		var body []byte
		if r.Method != http.MethodGet {
			var err error
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
				writeShardError(w, http.StatusRequestEntityTooLarge, err)
				return
			}
			if err = json.Unmarshal(body, &req); err != nil {
				writeShardError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
				return
			}
		}
		s.proxy(w, r, key(req), path, body)
	}
}

// proxy forwards one unary request to the key's owner, failing over to
// the next ring backend on transport errors only. HTTP statuses —
// including 503 back-pressure — are the backend's answer and pass
// through untouched (with their Retry-After hints), so end-to-end retry
// stays the client's decision and a saturated fleet is visible as such.
func (s *Shard) proxy(w http.ResponseWriter, r *http.Request, key, path string, body []byte) {
	tried := make(map[int]bool)
	first := true
	for {
		bi := s.ring.owner(key, func(i int) bool { return !tried[i] && s.backends[i].isUp() })
		if bi < 0 {
			s.metrics["no_backend"].Add(1)
			writeShardError(w, http.StatusBadGateway, errors.New("no backend available"))
			return
		}
		tried[bi] = true
		if !first {
			s.metrics["failovers"].Add(1)
		}
		first = false
		if s.forward(w, r, s.backends[bi], path, body) {
			s.metrics["proxied"].Add(1)
			return
		}
		// Transport failure: count it toward the health verdict and try
		// the next owner.
		s.noteFailure(s.backends[bi])
	}
}

// forward performs one proxied exchange, copying the backend's status,
// relevant headers, and body through verbatim. It reports false only on
// transport errors, where no response bytes were produced and failover
// is safe.
func (s *Shard) forward(w http.ResponseWriter, r *http.Request, b *backend, path string, body []byte) bool {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+path, rd)
	if err != nil {
		writeShardError(w, http.StatusInternalServerError, err)
		return true // not a transport failure: failing over cannot help
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Re-stamp the remaining deadline budget for the backend: the shard's
	// context already carries the client's propagated deadline (if any),
	// so the value sent downstream only ever shrinks.
	server.SetDeadlineHeader(req.Header, r.Context())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The client gave up, not the backend: stop failing over.
			writeShardError(w, http.StatusBadGateway, err)
			return true
		}
		return false
	}
	defer resp.Body.Close()
	s.noteSuccess(b)
	for _, h := range server.RelayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

func (s *Shard) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Flat string map: the bundled client's Healthz decodes exactly this
	// shape, so the shard is probeable by the same WaitReady loop as a
	// backend.
	resp := map[string]string{"status": "ok"}
	up := 0
	for _, b := range s.backends {
		state := "down"
		if b.isUp() {
			state = "up"
			up++
		}
		resp[b.url] = state
	}
	status := http.StatusOK
	if up == 0 {
		resp["status"] = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeShardJSON(w, status, resp)
}

// MetricsResponse is the shard's GET /metrics body: the front tier's
// own counters, the summed backend snapshot, and each backend's raw
// snapshot (or probe error) keyed by URL. Per-backend up/down is in
// /healthz.
type MetricsResponse struct {
	Shard     map[string]uint64      `json:"shard"`
	Aggregate server.MetricsSnapshot `json:"aggregate"`
	Backends  map[string]any         `json:"backends"`
}

func (s *Shard) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Shard: s.metrics.Snapshot(), Backends: make(map[string]any, len(s.backends))}
	for _, b := range s.backends {
		if b.isUp() {
			resp.Shard["backends_up"]++
		}
	}
	type scraped struct {
		url  string
		snap *server.MetricsSnapshot
		err  error
	}
	results := make([]scraped, len(s.backends))
	var wg sync.WaitGroup
	for i, b := range s.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.HealthTimeout)
			defer cancel()
			snap, err := b.client.Metrics(ctx)
			results[i] = scraped{url: b.url, snap: snap, err: err}
		}(i, b)
	}
	wg.Wait()
	agg := &resp.Aggregate
	for _, sc := range results {
		if sc.err != nil {
			resp.Backends[sc.url] = map[string]string{"error": sc.err.Error()}
			continue
		}
		resp.Backends[sc.url] = sc.snap
		mergeSnapshot(agg, sc.snap)
	}
	writeShardJSON(w, http.StatusOK, resp)
}

// mergeSnapshot sums one backend's counters into the aggregate.
func mergeSnapshot(agg *server.MetricsSnapshot, snap *server.MetricsSnapshot) {
	agg.InFlight += snap.InFlight
	agg.Requests = sumMap(agg.Requests, snap.Requests)
	agg.Admission = sumMap(agg.Admission, snap.Admission)
	agg.Cache = sumMap(agg.Cache, snap.Cache)
	agg.Compile = sumMap(agg.Compile, snap.Compile)
	agg.Memo = sumMap(agg.Memo, snap.Memo)
	agg.Batch = sumMap(agg.Batch, snap.Batch)
	agg.Traps = sumMap(agg.Traps, snap.Traps)
	agg.Latency = sumMap(agg.Latency, snap.Latency)
	agg.Pool = sumMap(agg.Pool, snap.Pool)
}

func sumMap(dst, src map[string]uint64) map[string]uint64 {
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

func writeShardJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

func writeShardError(w http.ResponseWriter, status int, err error) {
	writeShardJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

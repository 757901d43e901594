// Package netchaos is a deterministic fault-injecting reverse proxy for
// the serving tier: it sits between the shard front tier and an
// ifp-serve backend and misbehaves on purpose — added latency, refused
// and reset connections, blackholed streams, truncated campaigns,
// corrupted and duplicated NDJSON cell lines, slowloris writes — so the
// tier's failover, hedging, draining, and validation machinery
// can be proven against every network failure mode the real world
// offers, reproducibly.
//
// Determinism: all randomness comes from a splitmix64 stream
// (internal/splitmix) seeded by Config.Seed, and the
// fault budget (Config.MaxFaults) bounds how many requests are
// sabotaged, so a campaign over a faulted fleet always converges and a
// rerun with the same seed injects the same faults. Only POST requests
// are eligible — health probes and metrics scrapes pass clean, because
// the harness tests the data path's resilience, not the probe loop's.
package netchaos

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"infat/internal/server"
	"infat/internal/splitmix"
)

// Fault is one network failure mode the proxy can inject.
type Fault string

const (
	// FaultNone passes everything through untouched (the control arm).
	FaultNone Fault = "none"
	// FaultLatency delays the response by Config.Latency, then relays it
	// intact — a slow but correct backend.
	FaultLatency Fault = "latency"
	// FaultRefuse kills the connection before any response bytes, without
	// contacting the backend — the client sees a transport error with
	// zero lines delivered, the same observable as a refused connection.
	FaultRefuse Fault = "refuse"
	// FaultReset relays a partial first line and then kills the
	// connection — a mid-write connection reset.
	FaultReset Fault = "reset"
	// FaultBlackhole accepts the request, sends response headers, and
	// then stalls silently (up to Config.StallCap) before killing the
	// connection — the failure mode only a relay timeout or a hedge can
	// beat, because no error arrives until the stall ends.
	FaultBlackhole Fault = "blackhole"
	// FaultTruncate relays the stream but drops its final line — for a
	// campaign stream, the {"done":true} trailer — and ends cleanly, so
	// the truncation is only detectable by the trailer contract.
	FaultTruncate Fault = "truncate"
	// FaultCorrupt mangles the first response line: undecodable bytes, an
	// alien sequence number, or swapped cell coordinates (seeded choice).
	// The rest of the stream follows intact; catching the lie is the
	// receiver's validation layer's job.
	FaultCorrupt Fault = "corrupt"
	// FaultDuplicate emits the first response line twice — the dedup
	// layers must suppress the copy, not double-count it.
	FaultDuplicate Fault = "duplicate"
	// FaultSlowloris drips the first lines out with Config.Latency pauses
	// (total bounded by Config.StallCap) before finishing normally — a
	// straggler, not a failure, which is exactly what hedged dispatch
	// exists for.
	FaultSlowloris Fault = "slowloris"
)

// Faults lists every injectable fault, campaign-grid order, control arm
// first.
var Faults = []Fault{
	FaultNone, FaultLatency, FaultRefuse, FaultReset, FaultBlackhole,
	FaultTruncate, FaultCorrupt, FaultDuplicate, FaultSlowloris,
}

// Defaults for Config zero values.
const (
	// DefaultMaxFaults is the per-proxy fault budget: enough sabotage to
	// force the recovery machinery through several cycles, small enough
	// that every campaign converges fast.
	DefaultMaxFaults = 4
	// DefaultLatency is the injected delay for FaultLatency and the
	// per-line pause for FaultSlowloris.
	DefaultLatency = 50 * time.Millisecond
	// DefaultStallCap bounds a blackhole stall and a slowloris total
	// delay, so even the nastiest fault cannot wedge a test run.
	DefaultStallCap = 2 * time.Second
)

// Config parameterizes a Proxy. Target is required.
type Config struct {
	// Target is the backend base URL the proxy forwards to, e.g.
	// "http://127.0.0.1:8080".
	Target string
	// Fault is the failure mode injected on eligible requests
	// ("" = FaultNone).
	Fault Fault
	// Seed seeds the proxy's deterministic fault randomness (0 = 1).
	Seed uint64
	// MaxFaults is the fault budget: the first MaxFaults eligible POST
	// requests are sabotaged, everything after passes clean
	// (0 = DefaultMaxFaults, < 0 = unlimited).
	MaxFaults int
	// Latency is the FaultLatency delay and FaultSlowloris per-line pause
	// (0 = DefaultLatency).
	Latency time.Duration
	// StallCap bounds a FaultBlackhole stall and the total FaultSlowloris
	// delay (0 = DefaultStallCap).
	StallCap time.Duration
}

func (c Config) withDefaults() Config {
	if c.Fault == "" {
		c.Fault = FaultNone
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = DefaultMaxFaults
	}
	if c.Latency <= 0 {
		c.Latency = DefaultLatency
	}
	if c.StallCap <= 0 {
		c.StallCap = DefaultStallCap
	}
	return c
}

// Proxy is the fault-injecting reverse proxy: an http.Handler that
// forwards every request to Config.Target, sabotaging the first
// MaxFaults eligible ones according to Config.Fault. Construct with
// New; safe for concurrent use.
type Proxy struct {
	cfg Config

	mu  sync.Mutex // guards rng
	rng *splitmix.Stream

	eligible atomic.Uint64 // eligible POSTs seen (budget counter)
	injected atomic.Uint64 // faults actually injected
}

// New builds a Proxy for cfg.
func New(cfg Config) *Proxy {
	cfg = cfg.withDefaults()
	return &Proxy{cfg: cfg, rng: splitmix.New(cfg.Seed)}
}

// Injected reports how many requests have been sabotaged so far.
func (p *Proxy) Injected() uint64 { return p.injected.Load() }

// abort kills the client connection without completing the response —
// net/http closes the socket mid-stream, which the client observes as a
// transport error (connection reset / unexpected EOF).
func abort() { panic(http.ErrAbortHandler) }

// ServeHTTP forwards one exchange, injecting the configured fault if
// this request draws from the budget.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault := FaultNone
	if r.Method == http.MethodPost && p.cfg.Fault != FaultNone {
		if n := p.eligible.Add(1); p.cfg.MaxFaults < 0 || n <= uint64(p.cfg.MaxFaults) {
			fault = p.cfg.Fault
			p.injected.Add(1)
		}
	}
	switch fault {
	case FaultRefuse:
		abort()
	case FaultBlackhole:
		p.blackhole(w, r)
		return
	case FaultLatency:
		sleepCtx(r.Context(), p.cfg.Latency)
	}
	p.relay(w, r, fault)
}

// blackhole sends headers and then nothing until the stall cap (or the
// client hanging up), then kills the connection. The backend is never
// contacted: the cells were accepted and silently eaten.
func (p *Proxy) blackhole(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	sleepCtx(r.Context(), p.cfg.StallCap)
	abort()
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// relay forwards the request to the target and streams the response
// back line by line, applying the line-level faults.
func (p *Proxy) relay(w http.ResponseWriter, r *http.Request, fault Fault) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		abort()
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.cfg.Target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// The backend itself failed; surface that as a dead connection
		// rather than inventing a status the backend never sent.
		abort()
	}
	defer resp.Body.Close()
	for _, h := range server.RelayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	emit := func(line []byte) {
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	br := bufio.NewReader(resp.Body)
	var held []byte // one-line lookahead for FaultTruncate
	first := true
	slowBudget := p.cfg.StallCap
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			switch {
			case fault == FaultReset && first:
				// Half a record out, then the wire goes dead.
				emit(line[:len(line)/2+1])
				abort()
			case fault == FaultTruncate:
				// Emit the previously held line; hold this one. The last
				// line of the stream — the trailer — is never emitted.
				if held != nil {
					emit(held)
				}
				held = append([]byte(nil), line...)
			case fault == FaultCorrupt && first:
				emit(p.corruptLine(line))
			case fault == FaultDuplicate && first:
				emit(line)
				emit(line)
			case fault == FaultSlowloris && slowBudget > 0:
				d := p.cfg.Latency
				if d > slowBudget {
					d = slowBudget
				}
				slowBudget -= d
				sleepCtx(r.Context(), d)
				emit(line)
			default:
				emit(line)
			}
			first = false
		}
		if rerr != nil {
			return // EOF or backend read error: response ends here
		}
	}
}

// corruptLine deterministically mangles one NDJSON line, picking among
// the three corruption shapes the receiving tier must each detect:
// undecodable bytes, an alien sequence number, and swapped cell
// coordinates.
func (p *Proxy) corruptLine(line []byte) []byte {
	p.mu.Lock()
	mode := p.rng.Intn(3)
	p.mu.Unlock()
	trimmed := bytes.TrimRight(line, "\n")
	switch mode {
	case 0:
		// Undecodable: chop the line mid-record and append garbage.
		cut := len(trimmed)/2 + 1
		return append(append([]byte(nil), trimmed[:cut]...), []byte("}{netchaos\n")...)
	case 1:
		// Alien seq: a cell this backend (or campaign) was never asked for.
		var m map[string]json.RawMessage
		if json.Unmarshal(trimmed, &m) != nil || m["seq"] == nil {
			return append(append([]byte(nil), trimmed[:len(trimmed)/2]...), '\n')
		}
		var seq int
		json.Unmarshal(m["seq"], &seq)
		m["seq"] = json.RawMessage(fmt.Sprintf("%d", seq+100000))
		out, err := json.Marshal(m)
		if err != nil {
			return append(append([]byte(nil), trimmed[:len(trimmed)/2]...), '\n')
		}
		return append(out, '\n')
	default:
		// Coordinate swap: valid JSON, wrong identity.
		var m map[string]json.RawMessage
		if json.Unmarshal(trimmed, &m) != nil {
			return append(append([]byte(nil), trimmed[:len(trimmed)/2]...), '\n')
		}
		m["config"] = json.RawMessage(`"netchaos-corrupt"`)
		out, err := json.Marshal(m)
		if err != nil {
			return append(append([]byte(nil), trimmed[:len(trimmed)/2]...), '\n')
		}
		return append(out, '\n')
	}
}

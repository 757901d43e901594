package server

import (
	"sync/atomic"
	"time"

	"infat/internal/memo"
	"infat/internal/minic"
	"infat/internal/rt"
)

// latencyBuckets are the upper edges of the request-latency histogram.
// Requests slower than the last edge land in the overflow bucket.
var latencyBuckets = []time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// latencyLabels are the snapshot keys of each histogram bucket, in
// bucket order, overflow last.
var latencyLabels = []string{"le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "gt_10s"}

// Counters is one /metrics section: a fixed set of named monotonic
// counters. NewCounters creates every name up front, so a counter that
// never moved still renders as 0, and the map is never written after
// that, so any goroutine may index it and Add lock-free. An index must
// name a counter its section declared: any other name is a nil counter
// and panics on first use.
type Counters map[string]*atomic.Uint64

// NewCounters returns a section holding one zeroed counter per name.
func NewCounters(names ...string) Counters {
	c := make(Counters, len(names))
	for _, name := range names {
		c[name] = new(atomic.Uint64)
	}
	return c
}

// Snapshot reads every counter of the section under its name.
func (c Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c))
	for name, v := range c {
		out[name] = v.Load()
	}
	return out
}

// metrics is the service's counter set: one Counters section per
// /metrics section it owns, plus the in-flight gauge. Handlers update
// them lock-free on the request path and /metrics renders a
// consistent-enough snapshot without stopping the world. The memo, compile
// cache and runtime pool keep their own counters, merged into the
// snapshot.
type metrics struct {
	requests  Counters // per endpoint, named by the last element of its path
	admission Counters
	batch     Counters // the streaming campaign endpoints
	traps     Counters // per trap class; trapClassNone counts clean runs
	latency   Counters // per latencyLabels bucket
	inFlight  atomic.Int64
}

// newMetrics declares every counter the server renders, each exactly once.
func newMetrics() *metrics {
	return &metrics{
		requests: NewCounters("run", "juliet", "workload", "batch", "chaos", "healthz", "metrics"),
		admission: NewCounters(
			"bad_request",         // malformed or rejected request bodies (4xx)
			"rejected",            // deadline hit while queued for a worker
			"deadline",            // deadline hit while simulating
			"deadline_propagated", // timeouts clamped by DeadlineHeader
			"internal_panics",     // worker panics recovered into 500s or error cells
		),
		batch:   NewCounters("streams", "cells", "cell_errors", "cancelled"),
		traps:   NewCounters(trapClassSpatial, trapClassTemporal, trapClassFuel, trapClassInternal, trapClassOther, trapClassNone),
		latency: NewCounters(latencyLabels...),
	}
}

func (m *metrics) observeLatency(d time.Duration) {
	for i, edge := range latencyBuckets {
		if d <= edge {
			m.latency[latencyLabels[i]].Add(1)
			return
		}
	}
	m.latency[latencyLabels[len(latencyBuckets)]].Add(1)
}

// MetricsSnapshot is the /metrics response. Maps marshal with sorted
// keys, so the rendered JSON is deterministic for a given state.
type MetricsSnapshot struct {
	Requests  map[string]uint64 `json:"requests"` // per endpoint + "total"
	InFlight  int64             `json:"in_flight"`
	Admission map[string]uint64 `json:"admission"` // see newMetrics
	// Cache is the /v1/run slice of the memo store (KindRun only):
	// hits, misses, evictions, entries — the same shape it had when the
	// unary endpoint owned a private LRU, so PR 2/3 clients keep working.
	Cache map[string]uint64 `json:"cache"`
	// Compile is minic's compile cache behind /v1/run and /v1/juliet
	// (memo.KindProgram): hits, misses, evictions, entries. Like Pool it
	// is process-global, so Servers in one process share it.
	Compile map[string]uint64 `json:"compile"`
	// Memo is the whole content-addressed store across every kind (run
	// responses, grid cells, chaos cells): hits, misses, evictions,
	// entries, bytes, plus snapshot accounting (loaded, skipped).
	Memo map[string]uint64 `json:"memo"`
	// Batch covers the streaming campaign endpoints: streams started,
	// cells streamed, cell_errors, and streams cancelled by a disconnect
	// or deadline.
	Batch   map[string]uint64 `json:"batch"`
	Traps   map[string]uint64 `json:"traps"` // spatial, temporal, fuel, internal, other, none
	Latency map[string]uint64 `json:"latency_ms"`
	// Pool reports the runtime pool behind the workers: hits (acquisitions
	// served by resetting an idle runtime), misses (fresh constructions),
	// releases, discards, idle. The pool is process-global (rt.DefaultPool),
	// so with several Servers in one process these counters are shared.
	Pool map[string]uint64 `json:"pool"`
}

func (s *Server) snapshot() MetricsSnapshot {
	m := s.metrics
	req := m.requests.Snapshot()
	var total uint64
	for _, v := range req {
		total += v
	}
	req["total"] = total
	memoStats := s.memo.Stats()
	return MetricsSnapshot{
		Requests:  req,
		InFlight:  m.inFlight.Load(),
		Admission: m.admission.Snapshot(),
		Cache:     kindCounters(s.memo.KindStats(memo.KindRun)),
		Compile:   kindCounters(minic.CompileStats()),
		Memo: map[string]uint64{
			"hits":      memoStats.Hits,
			"misses":    memoStats.Misses,
			"evictions": memoStats.Evictions,
			"entries":   memoStats.Entries,
			"bytes":     memoStats.Bytes,
			"loaded":    memoStats.Loaded,
			"skipped":   memoStats.Skipped,
		},
		Batch:   m.batch.Snapshot(),
		Traps:   m.traps.Snapshot(),
		Latency: m.latency.Snapshot(),
		Pool:    poolCounters(),
	}
}

// kindCounters renders one memo kind's statistics as a /metrics section.
func kindCounters(st memo.KindStats) map[string]uint64 {
	return map[string]uint64{
		"hits":      st.Hits,
		"misses":    st.Misses,
		"evictions": st.Evictions,
		"entries":   st.Entries,
	}
}

// poolCounters snapshots rt.DefaultPool for the /metrics response.
func poolCounters() map[string]uint64 {
	ps := rt.DefaultPool.Stats()
	return map[string]uint64{
		"hits":     ps.Hits,
		"misses":   ps.Misses,
		"releases": ps.Releases,
		"discards": ps.Discards,
		"idle":     ps.Idle,
	}
}

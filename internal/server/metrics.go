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

// metrics is the service's expvar-style counter set. Every field is an
// atomic: handlers update them lock-free on the request path and
// /metrics renders a consistent-enough snapshot without stopping the
// world. Cache counters live on the cache itself and are merged into the
// snapshot.
type metrics struct {
	reqRun      atomic.Uint64
	reqJuliet   atomic.Uint64
	reqWorkload atomic.Uint64
	reqBatch    atomic.Uint64
	reqGrid     atomic.Uint64
	reqChaos    atomic.Uint64
	reqHealthz  atomic.Uint64
	reqMetrics  atomic.Uint64

	batchStreams    atomic.Uint64 // batch/grid/chaos streams started
	batchCells      atomic.Uint64 // cells simulated across all streams
	batchCellErrors atomic.Uint64 // cells that ended in an error line
	batchCancelled  atomic.Uint64 // streams truncated by disconnect/deadline

	inFlight           atomic.Int64
	badRequests        atomic.Uint64 // malformed/rejected request bodies (4xx)
	rejected           atomic.Uint64 // admission control: deadline hit while queued
	deadline           atomic.Uint64 // deadline hit while simulating
	deadlinePropagated atomic.Uint64 // requests whose timeout was clamped by DeadlineHeader
	internalPanics     atomic.Uint64 // worker panics recovered into 500s (simulator bugs)

	trapSpatial  atomic.Uint64
	trapTemporal atomic.Uint64 // generation-tagging detections (UAF / double free)
	trapFuel     atomic.Uint64
	trapInternal atomic.Uint64 // recovered-panic traps surfaced by a run
	trapOther    atomic.Uint64
	trapNone     atomic.Uint64 // simulations that completed clean

	latency [6]atomic.Uint64 // len(latencyBuckets) + 1 overflow slot
}

func (m *metrics) observeLatency(d time.Duration) {
	for i, edge := range latencyBuckets {
		if d <= edge {
			m.latency[i].Add(1)
			return
		}
	}
	m.latency[len(latencyBuckets)].Add(1)
}

// countTrap records one simulation verdict under its trap class ("" for
// a clean run).
func (m *metrics) countTrap(class string) {
	switch class {
	case trapClassSpatial:
		m.trapSpatial.Add(1)
	case trapClassTemporal:
		m.trapTemporal.Add(1)
	case trapClassFuel:
		m.trapFuel.Add(1)
	case trapClassInternal:
		m.trapInternal.Add(1)
	case "":
		m.trapNone.Add(1)
	default:
		m.trapOther.Add(1)
	}
}

// MetricsSnapshot is the /metrics response. Maps marshal with sorted
// keys, so the rendered JSON is deterministic for a given state.
type MetricsSnapshot struct {
	Requests  map[string]uint64 `json:"requests"` // per endpoint + "total"
	InFlight  int64             `json:"in_flight"`
	Admission map[string]uint64 `json:"admission"` // bad_request, rejected, deadline
	// Cache is the /v1/run slice of the memo store (KindRun only):
	// hits, misses, evictions, entries — the same shape it had when the
	// unary endpoint owned a private LRU, so PR 2/3 clients keep working.
	Cache map[string]uint64 `json:"cache"`
	// Compile is minic's compile cache behind /v1/run and every campaign
	// cell (memo.KindProgram): hits, misses, evictions, entries. Like
	// Pool it is process-global, so Servers in one process share it.
	Compile map[string]uint64 `json:"compile"`
	// Memo is the whole content-addressed store across every kind (run
	// responses, grid cells, chaos cells): hits, misses, evictions,
	// entries, bytes, plus snapshot accounting (loaded, skipped).
	Memo map[string]uint64 `json:"memo"`
	// Batch covers the streaming campaign endpoints: streams, cells,
	// cell_errors, cancelled.
	Batch   map[string]uint64 `json:"batch"`
	Traps   map[string]uint64 `json:"traps"` // spatial, temporal, fuel, other, none
	Latency map[string]uint64 `json:"latency_ms"`
	// Pool reports the runtime pool behind the workers: hits (acquisitions
	// served by resetting an idle runtime), misses (fresh constructions),
	// releases, discards, idle. The pool is process-global (rt.DefaultPool),
	// so with several Servers in one process these counters are shared.
	Pool map[string]uint64 `json:"pool"`
}

func (s *Server) snapshot() MetricsSnapshot {
	m := &s.metrics
	req := map[string]uint64{
		"run":      m.reqRun.Load(),
		"juliet":   m.reqJuliet.Load(),
		"workload": m.reqWorkload.Load(),
		"batch":    m.reqBatch.Load(),
		"grid":     m.reqGrid.Load(),
		"chaos":    m.reqChaos.Load(),
		"healthz":  m.reqHealthz.Load(),
		"metrics":  m.reqMetrics.Load(),
	}
	var total uint64
	for _, v := range req {
		total += v
	}
	req["total"] = total

	runStats := s.memo.KindStats(memo.KindRun)
	compileStats := minic.CompileStats()
	memoStats := s.memo.Stats()
	lat := make(map[string]uint64, len(latencyLabels))
	for i, label := range latencyLabels {
		lat[label] = m.latency[i].Load()
	}
	return MetricsSnapshot{
		Requests: req,
		InFlight: m.inFlight.Load(),
		Admission: map[string]uint64{
			"bad_request":         m.badRequests.Load(),
			"rejected":            m.rejected.Load(),
			"deadline":            m.deadline.Load(),
			"deadline_propagated": m.deadlinePropagated.Load(),
			"internal_panics":     m.internalPanics.Load(),
		},
		Cache: map[string]uint64{
			"hits":      runStats.Hits,
			"misses":    runStats.Misses,
			"evictions": runStats.Evictions,
			"entries":   runStats.Entries,
		},
		Compile: map[string]uint64{
			"hits":      compileStats.Hits,
			"misses":    compileStats.Misses,
			"evictions": compileStats.Evictions,
			"entries":   compileStats.Entries,
		},
		Memo: map[string]uint64{
			"hits":      memoStats.Hits,
			"misses":    memoStats.Misses,
			"evictions": memoStats.Evictions,
			"entries":   memoStats.Entries,
			"bytes":     memoStats.Bytes,
			"loaded":    memoStats.Loaded,
			"skipped":   memoStats.Skipped,
		},
		Batch: map[string]uint64{
			"streams":     m.batchStreams.Load(),
			"cells":       m.batchCells.Load(),
			"cell_errors": m.batchCellErrors.Load(),
			"cancelled":   m.batchCancelled.Load(),
		},
		Traps: map[string]uint64{
			"spatial":  m.trapSpatial.Load(),
			"temporal": m.trapTemporal.Load(),
			"fuel":     m.trapFuel.Load(),
			"internal": m.trapInternal.Load(),
			"other":    m.trapOther.Load(),
			"none":     m.trapNone.Load(),
		},
		Latency: lat,
		Pool:    poolCounters(),
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

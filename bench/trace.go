package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one request share Req;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// maxSpans bounds the spans a traced run keeps (about 40 MB of JSON);
// later spans are counted in dropped and not kept.
const maxSpans = 300_000

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay only a nil check per call.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, for a parent whose children finish first.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (t *tracer) add(id int64, name string, start, end time.Time, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Req: req}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// durations returns every duration of the named span, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// byReq returns the named spans' durations (ms) keyed by request ID,
// summed when a request has several (a retried round trip).
func (t *tracer) byReq(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Name == name && s.Req != 0 {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write stores the spans as a JSON array in dir/spans.json and returns
// how many were dropped.
func (t *tracer) write(dir string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return 0, err
	}
	return t.dropped, os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// opKey carries the benchmark operation (span ID and request ID) that an
// HTTP call belongs to, from the load generator to tracingTransport.
type opKey struct{}

type opInfo struct{ parent, req int64 }

func withOp(ctx context.Context, parent, req int64) context.Context {
	return context.WithValue(ctx, opKey{}, opInfo{parent, req})
}

// reqHeader tells the traced handler which request a server-side span
// belongs to, so handler time can be subtracted from the round trip.
const reqHeader = "X-Bench-Req"

// tracingTransport records one "http.roundtrip" span per request and
// stamps the request ID on the wire.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op, _ := r.Context().Value(opKey{}).(opInfo)
	r2 := r.Clone(r.Context())
	r2.Header.Set(reqHeader, strconv.FormatInt(op.req, 10))
	start := time.Now()
	resp, err := tt.base.RoundTrip(r2)
	tt.t.add(0, "http.roundtrip", start, time.Now(), op.parent, op.req)
	return resp, err
}

// within returns the durations (ms) of the named spans that started in
// [from, to].
func (t *tracer) within(name string, from, to time.Time) []float64 {
	if t == nil {
		return nil
	}
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= lo && s.Start <= hi {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traceHandler records one span named name around every POST h serves
// (the work endpoints; health and metrics probes are GETs). Without a
// tracer it returns h unchanged.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(0, name, start, time.Now(), 0, req)
	})
}

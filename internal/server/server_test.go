package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"infat/internal/memo"
	"infat/internal/minic"
	"infat/internal/rt"
)

const cleanProg = `int main() {
	long i;
	long acc = 0;
	long *p = (long*)malloc(8 * sizeof(long));
	for (i = 0; i < 8; i = i + 1) { p[i] = i * i; }
	for (i = 0; i < 8; i = i + 1) { acc = acc + p[i]; }
	free(p);
	print(acc);
	return 3;
}`

const overflowProg = `int main() {
	char buf[8];
	long i;
	for (i = 0; i <= 8; i = i + 1) { buf[i] = 'A'; }
	return 0;
}`

const loopProg = `int main() { while (1) { } return 0; }`

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	return s, NewClient(ts.URL), ts.Close
}

// TestRunMatchesLocal checks the acceptance contract: for every mode,
// the service's verdict, output, exit code, and counters equal a local
// run of the same (source, mode) under the same fuel.
func TestRunMatchesLocal(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped, rt.Hybrid} {
		resp, cached, err := c.Run(ctx, RunRequest{Source: cleanProg, Mode: mode.String()})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if cached {
			t.Fatalf("%v: first submission reported as cache hit", mode)
		}
		out, exit, counters, err := minic.ExecuteBudget(cleanProg, mode, DefaultFuel)
		if err != nil {
			t.Fatalf("%v: local run: %v", mode, err)
		}
		if resp.Trap != nil || resp.Exit != exit || !reflect.DeepEqual(resp.Output, out) {
			t.Fatalf("%v: server (out=%v exit=%d trap=%+v) != local (out=%v exit=%d)",
				mode, resp.Output, resp.Exit, resp.Trap, out, exit)
		}
		if resp.Counters != counters {
			t.Fatalf("%v: server counters %+v != local %+v", mode, resp.Counters, counters)
		}
	}
}

// TestRunResponseBytesStable checks byte-level determinism: a cache hit
// replays exactly the cold bytes, and an independent server instance
// produces the same bytes for the same request.
func TestRunResponseBytesStable(t *testing.T) {
	post := func(ts *httptest.Server) (string, []byte) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"source":`+encodeJSONString(cleanProg)+`,"mode":"subheap"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get(CacheHeader), body
	}
	ts1 := httptest.NewServer(New(Config{}))
	defer ts1.Close()
	ts2 := httptest.NewServer(New(Config{}))
	defer ts2.Close()

	state1, cold := post(ts1)
	state2, warm := post(ts1)
	_, other := post(ts2)
	if state1 != "miss" || state2 != "hit" {
		t.Fatalf("cache states = %q, %q; want miss, hit", state1, state2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm bytes differ from cold bytes:\n%s\n%s", cold, warm)
	}
	if !bytes.Equal(cold, other) {
		t.Fatalf("bytes differ across server instances:\n%s\n%s", cold, other)
	}
}

func encodeJSONString(s string) string { return string(mustJSON(s)) }

// TestHandlerErrors is the table-driven bad-input sweep.
func TestHandlerErrors(t *testing.T) {
	s := New(Config{MaxSourceBytes: 256})
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := `{"source":"` + strings.Repeat("x", 512) + `"}`
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad json", "POST", "/v1/run", `{"source":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/run", `{"source":"int main(){return 0;}","mod":"subheap"}`, http.StatusBadRequest},
		{"trailing data", "POST", "/v1/run", `{"source":"x"} {"source":"y"}`, http.StatusBadRequest},
		{"empty source", "POST", "/v1/run", `{"source":""}`, http.StatusBadRequest},
		{"null body", "POST", "/v1/run", `null`, http.StatusBadRequest},
		{"oversized source", "POST", "/v1/run", big, http.StatusRequestEntityTooLarge},
		{"unknown mode", "POST", "/v1/run", `{"source":"x","mode":"fat"}`, http.StatusBadRequest},
		{"compile error", "POST", "/v1/run", `{"source":"int main() { return }"}`, http.StatusUnprocessableEntity},
		{"wrong method run", "GET", "/v1/run", "", http.StatusMethodNotAllowed},
		{"unknown juliet case", "POST", "/v1/juliet", `{"case":"CWE999_nope"}`, http.StatusNotFound},
		{"juliet bad json", "POST", "/v1/juliet", `{"case":`, http.StatusBadRequest},
		{"juliet bad mode", "POST", "/v1/juliet", `{"case":"x","mode":"fat"}`, http.StatusBadRequest},
		{"unknown workload", "POST", "/v1/workload", `{"name":"nope"}`, http.StatusNotFound},
		{"workload bad json", "POST", "/v1/workload", `{"name":`, http.StatusBadRequest},
		{"workload bad mode", "POST", "/v1/workload", `{"name":"treeadd","mode":"fat"}`, http.StatusBadRequest},
		{"scale out of range", "POST", "/v1/workload", `{"name":"treeadd","scale":99}`, http.StatusBadRequest},
		{"negative scale", "POST", "/v1/workload", `{"name":"treeadd","scale":-1}`, http.StatusBadRequest},
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	// Every rejected body counts once under bad_request; a 404 does not.
	var rejected uint64
	for _, tc := range tests {
		if tc.want == http.StatusBadRequest || tc.want == http.StatusRequestEntityTooLarge {
			rejected++
		}
	}
	if got := s.snapshot().Admission["bad_request"]; got != rejected {
		t.Errorf("bad_request = %d, want %d", got, rejected)
	}
}

// TestDeadlineExceeded: with an expired per-request deadline the request
// is turned away by admission control — never simulated — and the
// outcome is not cached.
func TestDeadlineExceeded(t *testing.T) {
	s, c, done := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	defer done()
	// 503 is normally retried; disable that to observe a single rejection.
	c.NoRetry = true
	_, _, err := c.Run(context.Background(), RunRequest{Source: cleanProg})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if st := s.memo.KindStats(memo.KindRun); st.Entries != 0 {
		t.Fatalf("failed request left %d cache entries", st.Entries)
	}
	if got := s.metrics.admission["rejected"].Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestConcurrentDedup checks that concurrent identical submissions
// coalesce through the cache: one simulation, everyone else a hit, all
// responses byte-identical.
func TestConcurrentDedup(t *testing.T) {
	s, _, done := newTestServer(t, Config{})
	defer done()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	body := `{"source":` + encodeJSONString(cleanProg) + `,"mode":"wrapped"}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	st := s.memo.KindStats(memo.KindRun)
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\n%s", i, bodies[0], bodies[i])
		}
	}
}

// TestFuelTrap: a guest infinite loop comes back as a typed fuel trap,
// not a hang, and the counters show the budget was honoured.
func TestFuelTrap(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	const fuel = 200_000
	start := time.Now()
	resp, _, err := c.Run(context.Background(), RunRequest{Source: loopProg, Fuel: fuel})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trap == nil || resp.Trap.Class != trapClassFuel || resp.Trap.Kind != "fuel" {
		t.Fatalf("trap = %+v, want fuel", resp.Trap)
	}
	if resp.Counters.Cycles < fuel {
		t.Fatalf("trapped at %d cycles, before the %d budget", resp.Counters.Cycles, fuel)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("fuel trap took %v", elapsed)
	}
}

// TestFuelClampedToMaxFuel is the DoS guarantee the fuel budget exists
// for: a request naming an effectively unbounded budget (2^64-1 — far
// past the 2^62 threshold where the VM would lift its step limit
// entirely) is clamped to the server's MaxFuel cap, so the infinite
// loop still fuel-traps instead of pinning the worker forever.
func TestFuelClampedToMaxFuel(t *testing.T) {
	const maxFuel = 300_000
	_, c, done := newTestServer(t, Config{Fuel: 100_000, MaxFuel: maxFuel})
	defer done()
	resp, _, err := c.Run(context.Background(), RunRequest{Source: loopProg, Fuel: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trap == nil || resp.Trap.Class != trapClassFuel {
		t.Fatalf("trap = %+v, want fuel", resp.Trap)
	}
	if resp.Fuel != maxFuel {
		t.Fatalf("effective fuel = %d, want clamped to %d", resp.Fuel, maxFuel)
	}
	// An in-range override is still honoured as-is.
	resp, _, err = c.Run(context.Background(), RunRequest{Source: loopProg, Fuel: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fuel != 200_000 {
		t.Fatalf("effective fuel = %d, want the requested 200000", resp.Fuel)
	}
}

// TestMaxFuelNeverBelowFuel: the defaulting rule keeps the operator's
// own default budget admissible even when -max-fuel is set lower.
func TestMaxFuelNeverBelowFuel(t *testing.T) {
	cfg := New(Config{Fuel: 5_000_000, MaxFuel: 1_000}).Config()
	if cfg.MaxFuel != 5_000_000 {
		t.Fatalf("MaxFuel = %d, want raised to Fuel (5000000)", cfg.MaxFuel)
	}
	if def := New(Config{}).Config().MaxFuel; def != DefaultMaxFuel {
		t.Fatalf("MaxFuel default = %d, want %d", def, DefaultMaxFuel)
	}
}

// TestEscapedSourceWithinBodyCap: a legal source just under
// MaxSourceBytes made of newlines doubles in size when JSON-escaped;
// the body cap must still admit it (the request fails in the compiler,
// not with 413).
func TestEscapedSourceWithinBodyCap(t *testing.T) {
	const maxSource = 1 << 20
	_, c, done := newTestServer(t, Config{MaxSourceBytes: maxSource})
	defer done()
	_, _, err := c.Run(context.Background(),
		RunRequest{Source: strings.Repeat("\n", maxSource-1)})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want an APIError", err)
	}
	if apiErr.Status == http.StatusRequestEntityTooLarge {
		t.Fatal("escaped in-limit source rejected 413 by the body cap")
	}
	if apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (compile failure)", apiErr.Status)
	}
}

// TestSpatialTrap: the canonical overflow is classified spatial in both
// instrumented modes and missed by baseline.
func TestSpatialTrap(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	for _, mode := range []string{"subheap", "wrapped"} {
		resp, _, err := c.Run(ctx, RunRequest{Source: overflowProg, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trap == nil || resp.Trap.Class != trapClassSpatial {
			t.Fatalf("%s: trap = %+v, want spatial", mode, resp.Trap)
		}
	}
	resp, _, err := c.Run(ctx, RunRequest{Source: overflowProg, Mode: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trap != nil {
		t.Fatalf("baseline flagged the overflow: %+v", resp.Trap)
	}
}

// TestTemporalTrap: a same-type slot-reuse UAF — invisible to metadata
// invalidation, so the spatial modes run it clean — is classified
// temporal under the generation-tagging mode.
func TestTemporalTrap(t *testing.T) {
	const uafProg = `
long *gv;
int main() {
	long *p = (long*)malloc(4 * sizeof(long));
	gv = p;
	free(p);
	long *fresh = (long*)malloc(4 * sizeof(long));
	fresh[0] = 1;
	long *q = gv;
	*q = 2;
	free(fresh);
	return 0;
}`
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	resp, _, err := c.Run(ctx, RunRequest{Source: uafProg, Mode: "ifp-temporal"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trap == nil || resp.Trap.Class != trapClassTemporal || resp.Trap.Kind != "temporal" {
		t.Fatalf("ifp-temporal: trap = %+v, want temporal class", resp.Trap)
	}
	if resp.Counters.GenCheckFails == 0 {
		t.Fatalf("ifp-temporal: GenCheckFails = 0, want a recorded stale generation")
	}
	for _, mode := range []string{"subheap", "hybrid"} {
		resp, _, err := c.Run(ctx, RunRequest{Source: uafProg, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trap != nil {
			t.Fatalf("%s flagged the type-safe reuse UAF: %+v (spatial behavior changed)", mode, resp.Trap)
		}
	}
}

// TestJulietAndWorkloadEndpoints drives the remaining simulation
// endpoints through the client.
func TestJulietAndWorkloadEndpoints(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	names, err := c.JulietCases(ctx)
	if err != nil || len(names) == 0 {
		t.Fatalf("JulietCases: %v (%d names)", err, len(names))
	}
	jr, err := c.Juliet(ctx, JulietRequest{Case: "CWE122_heap_ptr_arith_bad", Mode: "subheap"})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Verdict != "pass" || !jr.Bad || jr.CWE != "CWE122" {
		t.Fatalf("juliet response %+v", jr)
	}

	wr, err := c.Workload(ctx, WorkloadRequest{Name: "treeadd", Mode: "subheap"})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := c.Workload(ctx, WorkloadRequest{Name: "treeadd", Mode: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Checksum != wb.Checksum {
		t.Fatalf("instrumented checksum %#x != baseline %#x", wr.Checksum, wb.Checksum)
	}
	if wr.Counters.Promote == 0 || wb.Counters.Promote != 0 {
		t.Fatalf("promote counters: subheap %d (want > 0), baseline %d (want 0)",
			wr.Counters.Promote, wb.Counters.Promote)
	}
}

// TestMixedConcurrentRequests is the acceptance scenario: a concurrent
// mixed request stream where every run response must match the local
// verdict for its (source, mode).
func TestMixedConcurrentRequests(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	type runCase struct {
		src, mode string
		wantTrap  string // "" for clean
	}
	cases := []runCase{
		{cleanProg, "subheap", ""},
		{cleanProg, "wrapped", ""},
		{overflowProg, "subheap", trapClassSpatial},
		{overflowProg, "wrapped", trapClassSpatial},
		{overflowProg, "baseline", ""},
	}
	// Precompute the local expectations.
	type local struct {
		out  []int64
		exit int64
	}
	want := make([]local, len(cases))
	for i, tc := range cases {
		mode, err := rt.ParseMode(tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		out, exit, _, _ := minic.ExecuteBudget(tc.src, mode, DefaultFuel)
		if out == nil {
			out = []int64{}
		}
		want[i] = local{out, exit}
	}

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, tc := range cases {
			wg.Add(1)
			go func(i int, tc runCase) {
				defer wg.Done()
				resp, _, err := c.Run(ctx, RunRequest{Source: tc.src, Mode: tc.mode})
				if err != nil {
					t.Errorf("%s/%s: %v", tc.mode, tc.wantTrap, err)
					return
				}
				gotTrap := ""
				if resp.Trap != nil {
					gotTrap = resp.Trap.Class
				}
				if gotTrap != tc.wantTrap {
					t.Errorf("%s: trap class %q, want %q", tc.mode, gotTrap, tc.wantTrap)
				}
				if !reflect.DeepEqual(resp.Output, want[i].out) || resp.Exit != want[i].exit {
					t.Errorf("%s: out=%v exit=%d, want out=%v exit=%d",
						tc.mode, resp.Output, resp.Exit, want[i].out, want[i].exit)
				}
			}(i, tc)
		}
		// Interleave the other endpoints.
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := c.Juliet(ctx, JulietRequest{Case: "CWE121_stack_direct_bad"}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := c.Healthz(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestMetricsSnapshot checks /metrics moves with traffic and the
// in-flight gauge settles back to zero.
func TestMetricsSnapshot(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	if _, _, err := c.Run(ctx, RunRequest{Source: cleanProg}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(ctx, RunRequest{Source: cleanProg}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(ctx, RunRequest{Source: loopProg, Fuel: 100_000}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests["run"] != 3 || m.Requests["total"] < 3 {
		t.Fatalf("request counters %v", m.Requests)
	}
	if m.Cache["hits"] != 1 || m.Cache["misses"] != 2 || m.Cache["entries"] != 2 {
		t.Fatalf("cache counters %v", m.Cache)
	}
	if m.Traps["none"] != 1 || m.Traps["fuel"] != 1 {
		t.Fatalf("trap counters %v", m.Traps)
	}
	if m.InFlight != 1 { // the in-flight /metrics request itself
		t.Fatalf("in_flight = %d, want 1 (the metrics request)", m.InFlight)
	}
	var total uint64
	for _, v := range m.Latency {
		total += v
	}
	if total != 3 { // latency is observed after the response is written
		t.Fatalf("latency histogram total = %d, want 3 completed requests", total)
	}
}

// TestMetricsSnapshotKeys pins the rendered /metrics shape: a fresh
// server renders exactly these sections with exactly these keys, and
// every counter the server owns reads 0. The compile and pool sections
// are process-global, so only their keys are checked.
func TestMetricsSnapshotKeys(t *testing.T) {
	b, err := json.Marshal(New(Config{}).snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(b, &sections); err != nil {
		t.Fatal(err)
	}
	stats := []string{"entries", "evictions", "hits", "misses"}
	want := map[string][]string{
		"requests":   {"batch", "chaos", "healthz", "juliet", "metrics", "run", "total", "workload"},
		"admission":  {"bad_request", "deadline", "deadline_propagated", "internal_panics", "rejected"},
		"cache":      stats,
		"compile":    stats,
		"memo":       {"bytes", "entries", "evictions", "hits", "loaded", "misses", "skipped"},
		"batch":      {"cancelled", "cell_errors", "cells", "streams"},
		"traps":      {"fuel", "internal", "none", "other", "spatial", "temporal"},
		"latency_ms": {"gt_10s", "le_100ms", "le_10ms", "le_10s", "le_1ms", "le_1s"},
		"pool":       {"discards", "hits", "idle", "misses", "releases"},
	}
	var names []string
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	wantNames := []string{"in_flight"}
	for name := range want {
		wantNames = append(wantNames, name)
	}
	sort.Strings(wantNames)
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("sections %v, want %v", names, wantNames)
	}
	if string(sections["in_flight"]) != "0" {
		t.Errorf("in_flight = %s, want 0", sections["in_flight"])
	}
	for name, keys := range want {
		var sec map[string]uint64
		if err := json.Unmarshal(sections[name], &sec); err != nil {
			t.Fatalf("section %s: %v", name, err)
		}
		var got []string
		for k, v := range sec {
			got = append(got, k)
			if v != 0 && name != "compile" && name != "pool" {
				t.Errorf("fresh %s[%s] = %d, want 0", name, k, v)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("section %s keys %v, want %v", name, got, keys)
		}
	}
}

// TestMetricsCompileCache: /metrics reports minic's compile cache under
// "compile". A cold /v1/run misses it once; the same source in a second
// mode misses the result cache again but hits the compile cache. The
// compile cache is process-global, so the test reads deltas.
func TestMetricsCompileCache(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	// A source no earlier run in this process compiled, even under -count.
	src := fmt.Sprintf("int main() { print(%d); return 7; }", time.Now().UnixNano())
	metrics := func() *MetricsSnapshot {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	delta := func(after, before map[string]uint64, key string) int64 {
		return int64(after[key]) - int64(before[key])
	}
	m0 := metrics()
	if _, ok := m0.Compile["entries"]; !ok {
		t.Fatalf("compile counters %v lack entries", m0.Compile)
	}
	if _, _, err := c.Run(ctx, RunRequest{Source: src, Mode: "subheap"}); err != nil {
		t.Fatal(err)
	}
	m1 := metrics()
	if d := delta(m1.Compile, m0.Compile, "misses"); d != 1 {
		t.Fatalf("cold run: compile misses +%d, want +1 (%v -> %v)", d, m0.Compile, m1.Compile)
	}
	if _, _, err := c.Run(ctx, RunRequest{Source: src, Mode: "wrapped"}); err != nil {
		t.Fatal(err)
	}
	m2 := metrics()
	if d := delta(m2.Compile, m1.Compile, "hits"); d != 1 {
		t.Fatalf("second mode: compile hits +%d, want +1 (%v -> %v)", d, m1.Compile, m2.Compile)
	}
	if d := delta(m2.Compile, m1.Compile, "misses"); d != 0 {
		t.Fatalf("second mode: compile misses +%d, want +0", d)
	}
	if d := delta(m2.Cache, m0.Cache, "misses"); d != 2 {
		t.Fatalf("result cache misses +%d over both runs, want +2 (%v -> %v)", d, m0.Cache, m2.Cache)
	}
}

// TestRunawayRecursionTraps: a guest that recurses without bound gets a
// 200 carrying the call-depth trap (class other, kind alloc), and the
// server keeps serving. Without the bound, one such request overflowed
// the Go stack and killed ifp-serve.
func TestRunawayRecursionTraps(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	for _, src := range []string{
		`long fib(long n) { if (n < 2) { return n; } return fib(n - 1) + fib(2); } int main() { print(fib(15)); return 0; }`,
		`void f() { f(); } int main() { f(); return 0; }`,
	} {
		resp, _, err := c.Run(ctx, RunRequest{Source: src})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if resp.Trap == nil || resp.Trap.Class != trapClassOther || resp.Trap.Kind != "alloc" ||
			!strings.Contains(resp.Trap.Message, "call depth exceeds") {
			t.Fatalf("%s: trap = %+v, want the call-depth alloc trap", src, resp.Trap)
		}
		if err := c.Healthz(ctx); err != nil {
			t.Fatalf("server down after %s: %v", src, err)
		}
	}
}

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"infat/internal/exp"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// batchTestWorkloads is the small subset the HTTP equivalence tests
// stream, mirroring the exp-level cell tests.
var batchTestWorkloads = []string{"treeadd", "health"}

func batchWorkloadSet(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range batchTestWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestBatchStreamEquivalence: one /v1/batch request streams the whole
// campaign and reassembles to the exact bytes of a serial run; its perf
// cells alone (GridReport) reassemble to the perf-only report.
func TestBatchStreamEquivalence(t *testing.T) {
	ws := batchWorkloadSet(t)
	workers := runtime.NumCPU()
	serial, err := exp.RunSet(ws, 1, workers)
	if err != nil {
		t.Fatal(err)
	}
	serialMem, err := exp.RunMemSet(ws, exp.MemScale, workers)
	if err != nil {
		t.Fatal(err)
	}

	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	got, err := c.BatchReport(ctx, BatchRequest{Workloads: batchTestWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Report(serial, serialMem); got != want {
		t.Fatalf("streamed batch report differs from serial run:\n--- streamed ---\n%s\n--- serial ---\n%s", got, want)
	}

	gotGrid, err := c.GridReport(ctx, BatchRequest{Workloads: batchTestWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.PerfReport(serial); gotGrid != want {
		t.Fatal("streamed grid report differs from serial run")
	}
}

// TestChaosStreamEquivalence: /v1/chaos reassembles the deterministic
// fault-injection campaign byte-for-byte.
func TestChaosStreamEquivalence(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	got, err := c.ChaosReport(context.Background(), ChaosRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := exp.ChaosReport(1, runtime.NumCPU()); got != want {
		t.Fatal("streamed chaos report differs from serial campaign")
	}
}

// TestBatchSubsetAndTrailer: an explicit cell subset streams exactly
// those cells, in metadata agreeing with the plan, and the trailer
// accounts for them.
func TestBatchSubsetAndTrailer(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	req := BatchRequest{Workloads: batchTestWorkloads, Cells: []int{4, 0, 9}}
	plan, err := req.BatchPlan()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]BatchCell)
	trailer, err := c.BatchStream(context.Background(), req, func(cell BatchCell) error {
		got[cell.Seq] = cell
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Cells != 3 || trailer.Completed != 3 || trailer.Failed != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	for _, seq := range req.Cells {
		cell, ok := got[seq]
		if !ok {
			t.Fatalf("cell %d never streamed (got %v)", seq, got)
		}
		m := plan.Meta(seq)
		if cell.Kind != m.Kind || cell.Workload != m.Workload || cell.Config != m.Config {
			t.Errorf("cell %d metadata %+v, want %+v", seq, cell, m)
		}
		if cell.Result == nil || cell.Error != "" {
			t.Errorf("cell %d missing payload: %+v", seq, cell)
		}
	}
}

// TestBatchValidation: malformed campaign requests are rejected with
// 400 before any streaming starts.
func TestBatchValidation(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	for name, body := range map[string]string{
		"unknown workload":    `{"workloads":["nope"]}`,
		"duplicate workload":  `{"workloads":["treeadd","treeadd"]}`,
		"scale too large":     `{"scale":99}`,
		"subset out of range": `{"cells":[12345]}`,
		"duplicate cell":      `{"cells":[1,1]}`,
		"unknown field":       `{"bogus":true}`,
		"trailing data":       `{} {}`,
		// scale*mem_scale wraps around to a negative effective scale.
		"mem_scale overflow": `{"workloads":["treeadd"],"scale":2,"mem_scale":4611686018427387904,"cells":[5]}`,
	} {
		resp, err := http.Post(c.BaseURL+BatchPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestGridStreamTemporalEquivalence: a Temporal grid request streams the
// six-configuration plan (spatial five + ifp-temporal) and reassembles
// to the exact bytes a local temporal assembly renders — spatial report
// prefix plus the temporal section — while a request without the flag
// never mentions the temporal axis.
func TestGridStreamTemporalEquivalence(t *testing.T) {
	ws := batchWorkloadSet(t)
	plan := exp.NewPlan(ws, 1).WithTemporal(true)
	a := plan.NewAssembly()
	for i := 0; i < plan.NumCells(); i++ {
		cell, err := plan.ComputeCell(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Add(i, cell); err != nil {
			t.Fatal(err)
		}
	}
	want, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}

	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	got, err := c.GridReport(ctx, BatchRequest{Workloads: batchTestWorkloads, Temporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed temporal grid report differs from local assembly:\n--- streamed ---\n%s\n--- local ---\n%s", got, want)
	}
	if !strings.Contains(got, "Temporal axis") {
		t.Fatal("temporal grid report missing the temporal section")
	}

	spatial, err := c.GridReport(ctx, BatchRequest{Workloads: batchTestWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(spatial, "Temporal axis") || strings.Contains(spatial, "ifp-temporal") {
		t.Fatal("spatial grid report mentions the temporal axis")
	}
}

// TestBatchMidStreamCancellation is the leak regression test: a client
// that disconnects halfway through a batch stream must leave no trace —
// every worker-semaphore slot released, the runtime pool's checkout
// ledger balanced, and the truncation counted.
func TestBatchMidStreamCancellation(t *testing.T) {
	// One worker and a scaled-up campaign (864 cells through a single
	// slot) guarantee the stream is still mid-flight when we walk away
	// after two lines — even with a warm runtime pool, which makes
	// individual cells fast enough that a default-sized campaign can
	// complete before the server notices the disconnect.
	s, c, done := newTestServer(t, Config{Workers: 1})
	defer done()

	before := rt.DefaultPool.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(ChaosRequest{Scale: 4})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+ChaosPath, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for lines := 0; lines < 2 && sc.Scan(); lines++ {
	}
	cancel() // client walks away mid-stream
	resp.Body.Close()

	// Every slot must come back: in-flight cells finish (bounded by
	// fuel), queued cells are never dispatched.
	deadline := time.Now().Add(30 * time.Second)
	for len(s.sem) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker slots still held after disconnect", len(s.sem))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The runtime pool's ledger must balance: everything checked out
	// since the test began was checked back in.
	for {
		after := rt.DefaultPool.Stats()
		out := (after.Hits + after.Misses) - (before.Hits + before.Misses)
		in := (after.Releases + after.Discards) - (before.Releases + before.Discards)
		if out == in {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime pool unbalanced after disconnect: %d acquired, %d returned", out, in)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The truncation is observable.
	for s.metrics.batch["cancelled"].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled stream never counted in batch metrics")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.snapshot().Batch["cancelled"]; got == 0 {
		t.Error("snapshot missing cancelled stream")
	}

	// The server remains fully serviceable after the truncated stream.
	if _, _, err := c.Run(context.Background(), RunRequest{Source: cleanProg}); err != nil {
		t.Fatalf("run after cancelled batch: %v", err)
	}
}

// TestBusyResponsesCarryRetryAfter: 503 admission rejections carry the
// structured JSON error body and the Retry-After hint.
func TestBusyResponsesCarryRetryAfter(t *testing.T) {
	// Zero-worker trick is impossible (Workers is defaulted), so force
	// rejection with an already-expired deadline instead.
	s, _, done := newTestServer(t, Config{})
	defer done()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	status, body, ok := s.dispatch(ctx, func() (int, []byte) { return http.StatusOK, nil })
	if ok || status != http.StatusServiceUnavailable {
		t.Fatalf("dispatch = (%d, ok=%v), want 503", status, ok)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("503 body %q is not a structured error (%v)", body, err)
	}

	// Through the HTTP layer: a request whose deadline expired before a
	// slot was free answers 503 + Retry-After (1s).
	req, err := http.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"source":"int main() { return 0; }"}`))
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	req = req.WithContext(expired)
	rec := httptest.NewRecorder()
	s.handleRun(rec, req)
	if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 503/504", rec.Code)
	}
	if got := rec.Header().Get(RetryAfterHeader); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("busy body %q not structured", rec.Body.String())
	}
}

// TestCampaignStreamReportsWorkers: every campaign stream carries the
// backend's worker count, which the shard sizes its chunks by.
func TestCampaignStreamReportsWorkers(t *testing.T) {
	_, c, done := newTestServer(t, Config{Workers: 3})
	defer done()
	for _, route := range CampaignRoutes {
		hdr, _, _ := postNDJSON(t, c.BaseURL+route.Path, `{"cells":[0]}`)
		if got := hdr.Get(WorkersHeader); got != "3" {
			t.Errorf("%s: %s = %q, want 3", route.Path, WorkersHeader, got)
		}
	}
}

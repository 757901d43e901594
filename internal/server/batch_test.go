package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"infat/internal/exp"
	"infat/internal/memo"
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
// report campaign and reassembles to the exact bytes of a serial run,
// whether it names the report plan or leaves the plan empty.
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

	want := exp.Report(serial, serialMem)
	for _, plan := range []string{"", PlanReport} {
		got, err := c.Report(ctx, BatchRequest{Plan: plan, Workloads: batchTestWorkloads})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("plan %q: streamed batch report differs from serial run:\n--- streamed ---\n%s\n--- serial ---\n%s", plan, got, want)
		}
	}
}

// TestChaosStreamEquivalence: the chaos plan reassembles the
// deterministic fault-injection campaign byte-for-byte.
func TestChaosStreamEquivalence(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	got, err := c.Report(context.Background(), BatchRequest{Plan: PlanChaos})
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
	plan, err := req.Resolve(nil)
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

// TestBatchValidation: malformed campaign requests — including an
// unknown plan, a field the named plan does not take, and the temporal
// flag the temporal plan replaced — are rejected with 400 before any
// streaming starts.
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
		"trailing brace":      `{"cells":[0]}}`,
		"trailing bracket":    `{"cells":[0]}]`,
		// scale*mem_scale wraps around to a negative effective scale.
		"mem_scale overflow":      `{"workloads":["treeadd"],"scale":2,"mem_scale":4611686018427387904,"cells":[5]}`,
		"unknown plan":            `{"plan":"grid"}`,
		"chaos with workloads":    `{"plan":"chaos","workloads":["treeadd"]}`,
		"chaos with mem_scale":    `{"plan":"chaos","mem_scale":2}`,
		"chaos scale too large":   `{"plan":"chaos","scale":5}`,
		"temporal with mem_scale": `{"plan":"temporal","mem_scale":2}`,
		"temporal flag":           `{"temporal":true}`,
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

// TestTemporalStreamEquivalence: the temporal plan streams its six
// configurations per workload and reassembles to exactly what a serial
// run of exp.TemporalPlan renders. Its spatial cells are the report
// plan's, so after a stream of the perf grid they are all warm.
func TestTemporalStreamEquivalence(t *testing.T) {
	want, err := exp.RunReport(exp.TemporalPlan(batchWorkloadSet(t), 1), runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}

	_, c, done := newTestServer(t, Config{})
	defer done()
	req := BatchRequest{Plan: PlanTemporal, Workloads: batchTestWorkloads}
	got, err := c.Report(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed temporal report differs from serial run:\n--- streamed ---\n%s\n--- serial ---\n%s", got, want)
	}
	if !strings.HasPrefix(got, "Temporal axis") {
		t.Fatalf("temporal report is not the temporal section:\n%s", got)
	}

	_, warmC, warmDone := newTestServer(t, Config{})
	defer warmDone()
	postNDJSON(t, warmC.BaseURL+BatchPath, `{"workloads":["treeadd","health"],"cells":[0,1,2,3,4,5,6,7,8,9]}`)
	hdr, lines, _ := postNDJSON(t, warmC.BaseURL+BatchPath, string(mustJSON(req)))
	if got := hdr.Get(MemoHeader); got != "10" || len(lines) != 12 {
		t.Fatalf("temporal stream after the perf grid: %s = %q over %d cells, want 10 warm of 12", MemoHeader, got, len(lines))
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
	body, _ := json.Marshal(BatchRequest{Plan: PlanChaos, Scale: 4})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+BatchPath, strings.NewReader(string(body)))
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
	for plan := range campaignPlans {
		hdr, _, _ := postNDJSON(t, c.BaseURL+BatchPath, fmt.Sprintf(`{"plan":%q,"cells":[0]}`, plan))
		if got := hdr.Get(WorkersHeader); got != "3" {
			t.Errorf("%s: %s = %q, want 3", plan, WorkersHeader, got)
		}
	}
}

// faultyCampaign is a three-cell campaign whose second cell fails and
// whose third panics, as a simulator bug would.
type faultyCampaign struct{}

func (faultyCampaign) NumCells() int { return 3 }
func (faultyCampaign) Meta(i int) exp.CellMeta {
	return exp.CellMeta{Seq: i, Kind: exp.CellPerf, Workload: "w", Config: "c"}
}
func (faultyCampaign) Key(i int) string                        { return fmt.Sprint(i) }
func (faultyCampaign) CellDigest(int) memo.Digest              { return memo.Digest{} }
func (faultyCampaign) CellScale(int) int                       { return 1 }
func (faultyCampaign) ProbeCell(int) bool                      { return false }
func (faultyCampaign) LookupCell(int) (exp.CellResult, bool)   { return exp.CellResult{}, false }
func (faultyCampaign) CheckPayload(int, exp.CellResult) error  { return nil }
func (faultyCampaign) Render([]exp.CellResult) (string, error) { return "", nil }
func (faultyCampaign) ComputeCell(i int) (exp.CellResult, error) {
	switch i {
	case 1:
		return exp.CellResult{}, errors.New("cell failed")
	case 2:
		panic("simulator bug")
	}
	return exp.CellResult{Perf: &exp.ModeResult{}}, nil
}

// TestCampaignStreamFailureAccounting: a cell whose computation fails
// and one that panics each stream as an error line, the rest of the
// campaign still streams, and the trailer and /metrics account for
// both: every error cell under batch.cell_errors, the panic also under
// admission.internal_panics. Every worker slot is free afterwards.
func TestCampaignStreamFailureAccounting(t *testing.T) {
	s := New(Config{Workers: 2})
	camp, err := newCampaign[exp.CellResult](faultyCampaign{}, BatchRequest{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	// A leaked slot would block the stream's next admission; the deadline
	// ends it without a trailer instead.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	camp.stream(s, rec, httptest.NewRequest(http.MethodPost, BatchPath, nil).WithContext(ctx))

	var errLines int
	var trailer BatchTrailer
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var cell BatchCell
		if err := json.Unmarshal(sc.Bytes(), &trailer); err == nil && trailer.Done {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatal(err)
		}
		if cell.Error != "" {
			errLines++
			if cell.Result != nil || cell.Chaos != nil {
				t.Errorf("error cell %d carries a payload: %s", cell.Seq, sc.Bytes())
			}
		}
	}
	if errLines != 2 {
		t.Errorf("%d error lines, want 2:\n%s", errLines, rec.Body)
	}
	if want := (BatchTrailer{Done: true, Cells: 3, Completed: 1, Failed: 2}); trailer != want {
		t.Errorf("trailer %+v, want %+v", trailer, want)
	}
	snap := s.snapshot()
	if got := snap.Batch["cell_errors"]; got != 2 {
		t.Errorf("batch.cell_errors = %d, want 2", got)
	}
	if got := snap.Admission["internal_panics"]; got != 1 {
		t.Errorf("admission.internal_panics = %d, want 1", got)
	}
	if n := len(s.sem); n != 0 {
		t.Errorf("%d worker slots still held", n)
	}
}

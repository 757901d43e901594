package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"infat/internal/chaos"
	"infat/internal/exp"
	"infat/internal/server"
	"infat/internal/workloads"
)

// TestRingStableOwnership pins the consistent-hashing contract: keys
// spread over every backend, ownership is deterministic, and removing
// one backend moves only that backend's keys.
func TestRingStableOwnership(t *testing.T) {
	r := newRing(3, DefaultReplicas, func(i int) string { return fmt.Sprintf("http://backend-%d", i) })
	allUp := func(int) bool { return true }
	counts := make([]int, 3)
	owners := make(map[string]int)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%d", i)
		o := r.owner(k, allUp)
		if o < 0 || o > 2 {
			t.Fatalf("owner(%q) = %d", k, o)
		}
		if again := r.owner(k, allUp); again != o {
			t.Fatalf("owner(%q) unstable: %d then %d", k, o, again)
		}
		owners[k] = o
		counts[o]++
	}
	for b, n := range counts {
		if n < 300 {
			t.Errorf("backend %d owns %d of 3000 keys: ring is unbalanced", b, n)
		}
	}
	// Drop backend 1: its keys must move, everyone else's must not.
	without1 := func(b int) bool { return b != 1 }
	for k, o := range owners {
		no := r.owner(k, without1)
		if o != 1 && no != o {
			t.Fatalf("key %q moved %d->%d though its owner stayed up", k, o, no)
		}
		if o == 1 && no == 1 {
			t.Fatalf("key %q still routed to the removed backend", k)
		}
	}
	if r.owner("anything", func(int) bool { return false }) != -1 {
		t.Error("owner with no eligible backend != -1")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no backends succeeded")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a"}}); err == nil {
		t.Error("New with duplicate backends succeeded")
	}
}

// testWorkloads is the small subset the equivalence tests run.
var testWorkloads = []string{"treeadd", "health"}

func workloadSet(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range testWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// newFleet boots n in-process backends plus the shard front tier and
// returns a client against the shard.
func newFleet(t *testing.T, n int) (*Shard, []*httptest.Server, *server.Client) {
	t.Helper()
	var urls []string
	var backs []*httptest.Server
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(server.Config{}))
		t.Cleanup(ts.Close)
		backs = append(backs, ts)
		urls = append(urls, ts.URL)
	}
	sh, err := New(Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
		DownAfter:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	return sh, backs, server.NewClient(front.URL)
}

// serialGroundTruth computes the serial run the sharded campaigns must
// reproduce, once per test process (both equivalence tests share it).
var serialGroundTruth = struct {
	sync.Once
	results []exp.Result
	mem     []exp.MemResult
	err     error
}{}

func serialRun(t *testing.T) ([]exp.Result, []exp.MemResult) {
	t.Helper()
	g := &serialGroundTruth
	g.Do(func() {
		ws := workloadSet(t)
		workers := runtime.NumCPU()
		if g.results, g.err = exp.RunSet(ws, 1, workers); g.err != nil {
			return
		}
		g.mem, g.err = exp.RunMemSet(ws, exp.MemScale, workers)
	})
	if g.err != nil {
		t.Fatal(g.err)
	}
	return g.results, g.mem
}

// TestShardBatchReportEquivalence is the tentpole acceptance test: a
// batch campaign scattered over two backends reassembles to the exact
// bytes a serial run produces — full report and perf-only grid.
func TestShardBatchReportEquivalence(t *testing.T) {
	serial, serialMem := serialRun(t)

	_, _, c := newFleet(t, 2)
	ctx := context.Background()
	got, err := c.BatchReport(ctx, server.BatchRequest{Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Report(serial, serialMem); got != want {
		t.Fatalf("shard batch report differs from serial run:\n--- shard ---\n%s\n--- serial ---\n%s", got, want)
	}

	gotGrid, err := c.GridReport(ctx, server.BatchRequest{Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.PerfReport(serial); gotGrid != want {
		t.Fatal("shard grid report differs from serial run")
	}
}

// TestShardFailover: with one backend killed, unary requests fail over
// and a batch campaign is reassigned to the survivor — same bytes.
func TestShardFailover(t *testing.T) {
	serial, serialMem := serialRun(t)

	sh, backs, c := newFleet(t, 2)
	ctx := context.Background()
	backs[0].Close()

	// Unary failover: whichever backend owned this key, the answer comes
	// from a live one.
	const src = "int main() { print(1); return 0; }"
	if _, _, err := c.Run(ctx, server.RunRequest{Source: src}); err != nil {
		t.Fatalf("run after backend loss: %v", err)
	}
	if _, cached, err := c.Run(ctx, server.RunRequest{Source: src}); err != nil || !cached {
		t.Fatalf("repeat run after backend loss: cached=%v err=%v", cached, err)
	}

	got, err := c.BatchReport(ctx, server.BatchRequest{Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Report(serial, serialMem); got != want {
		t.Fatal("post-failover shard batch report differs from serial run")
	}
	if sh.metrics.reassignedCells.Load() == 0 && sh.metrics.failovers.Load() == 0 {
		t.Error("failover left no trace in shard metrics")
	}

	// The health loop drains the dead backend from /healthz.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h map[string]string
		resp, err := http.Get(c.BaseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h[backs[0].URL] == "down" && h["status"] == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never drained: %v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardSubsetAndValidation: explicit cell subsets stream exactly
// those cells; malformed requests fail with 400 before streaming.
func TestShardSubsetAndValidation(t *testing.T) {
	_, _, c := newFleet(t, 2)
	ctx := context.Background()

	var seqs []int
	trailer, err := c.GridStream(ctx, server.BatchRequest{Workloads: testWorkloads, Cells: []int{0, 7, 3}},
		func(cell server.BatchCell) error {
			seqs = append(seqs, cell.Seq)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Cells != 3 || trailer.Completed != 3 || trailer.Failed != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	want := map[int]bool{0: true, 7: true, 3: true}
	if len(seqs) != 3 {
		t.Fatalf("received %d cells: %v", len(seqs), seqs)
	}
	for _, seq := range seqs {
		if !want[seq] {
			t.Errorf("unexpected cell seq %d", seq)
		}
	}

	for name, body := range map[string]string{
		"unknown workload": `{"workloads":["nope"]}`,
		"bad subset":       `{"cells":[99999]}`,
		"unknown field":    `{"bogus":1}`,
	} {
		resp, err := http.Post(c.BaseURL+server.GridPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestBreakerStateMachine drives the full circuit:
// closed → open at the failure threshold → half-open after the cooldown
// (exactly one probe slot) → closed on probe success, reopened on probe
// failure. The clock is injected so every transition is deterministic.
func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := newBreaker(2, time.Minute)
	b.now = func() time.Time { return clock }

	if !b.allow() {
		t.Fatal("closed breaker refused traffic")
	}
	b.onFailure()
	if st, fails := b.snapshot(); st != BreakerClosed || fails != 1 {
		t.Fatalf("after 1 failure: state=%s fails=%d", st, fails)
	}
	b.onFailure() // hits threshold
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("after threshold failures: state=%s, want open", st)
	}
	if b.allow() {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}

	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed but no half-open probe admitted")
	}
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("post-cooldown state=%s, want half-open", st)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.onFailure() // probe failed: straight back to open
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("failed probe left state=%s, want open", st)
	}
	if b.allow() {
		t.Fatal("reopened breaker admitted traffic inside the new cooldown")
	}

	clock = clock.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second cooldown elapsed but no probe admitted")
	}
	b.onSuccess()
	if st, fails := b.snapshot(); st != BreakerClosed || fails != 0 {
		t.Fatalf("successful probe: state=%s fails=%d, want closed/0", st, fails)
	}
	if !b.allow() {
		t.Fatal("reclosed breaker refused traffic")
	}
}

// TestProbeDelayBackoffAndJitter pins the probe pacing contract: the
// delay doubles per consecutive failure up to 8x the base, carries at
// most a quarter-interval of jitter, is deterministic under a seed, and
// differs across seeds (no fleet-wide lockstep).
func TestProbeDelayBackoffAndJitter(t *testing.T) {
	const base = 100 * time.Millisecond
	rng := newPrng(42)
	for fails := 0; fails <= 6; fails++ {
		want := base << uint(fails)
		if want > 8*base {
			want = 8 * base
		}
		d := probeDelay(base, fails, rng)
		if d < want || d >= want+base/4 {
			t.Errorf("probeDelay(fails=%d) = %v, want [%v, %v)", fails, d, want, want+base/4)
		}
	}
	// Same seed, same schedule — the reproducibility the netchaos
	// campaign gates on.
	r1, r2 := newPrng(7), newPrng(7)
	for i := 0; i < 16; i++ {
		if d1, d2 := probeDelay(base, i%4, r1), probeDelay(base, i%4, r2); d1 != d2 {
			t.Fatalf("seeded probe schedule not reproducible: %v vs %v at step %d", d1, d2, i)
		}
	}
	// Different seeds must desynchronize somewhere.
	ra, rb := newPrng(1), newPrng(2)
	same := true
	for i := 0; i < 16; i++ {
		if probeDelay(base, 0, ra) != probeDelay(base, 0, rb) {
			same = false
		}
	}
	if same {
		t.Error("probe jitter identical across seeds: loops would tick in lockstep")
	}
}

// throttledHandler slows every response-body write of POSTed streams so
// a backend demonstrably still has undelivered cells when the test
// kills it mid-stream.
type throttledHandler struct {
	h     http.Handler
	delay time.Duration
}

func (th throttledHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		w = &slowWriter{ResponseWriter: w, delay: th.delay}
	}
	th.h.ServeHTTP(w, r)
}

type slowWriter struct {
	http.ResponseWriter
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.ResponseWriter.Write(p)
}

func (s *slowWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *slowWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// TestShardChaosMidStreamBackendKill kills a backend in the middle of a
// /v1/chaos campaign — connections dropped while its part is streaming
// — and requires the campaign to finish anyway with the exact serial
// bytes, the backend's undelivered cells reassigned to the survivor and
// accounted in the reassigned_cells metric.
func TestShardChaosMidStreamBackendKill(t *testing.T) {
	// Backend 0 streams slowly (5ms per write), so when the first cell
	// arrives at the client, backend 0 provably still holds undelivered
	// cells; backend 1 is a normal survivor.
	slow := httptest.NewServer(throttledHandler{h: server.New(server.Config{}), delay: 5 * time.Millisecond})
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(fast.Close)

	sh, err := New(Config{
		Backends:       []string{slow.URL, fast.URL},
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
		DownAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	c := server.NewClient(front.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	req := server.ChaosRequest{Scale: 1}
	plan := req.Plan()
	a := plan.NewAssembly()
	// The killer keeps cutting backend 0's connections for a window, not
	// just once: the relay client retries a stream that died before its
	// first line, so a single cut could be quietly absorbed by a clean
	// reconnect instead of forcing a reassignment.
	killDone := make(chan struct{})
	var kill sync.Once
	startKiller := func() {
		go func() {
			defer close(killDone)
			for i := 0; i < 40; i++ {
				slow.CloseClientConnections()
				time.Sleep(25 * time.Millisecond)
			}
		}()
	}
	if _, err := c.ChaosStream(ctx, req, func(cell server.BatchCell) error {
		kill.Do(startKiller)
		if cell.Error != "" || cell.Chaos == nil {
			return fmt.Errorf("cell %d: error=%q chaos=%v", cell.Seq, cell.Error, cell.Chaos)
		}
		return a.AddChecked(cell.Meta(), *cell.Chaos)
	}); err != nil {
		t.Fatalf("chaos campaign with mid-stream kill: %v", err)
	}
	<-killDone
	got, internal, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	want, wantInternal := exp.ChaosReport(1, runtime.NumCPU())
	if got != want || internal != wantInternal {
		t.Fatal("post-kill chaos report differs from serial campaign")
	}
	if n := sh.metrics.reassignedCells.Load(); n == 0 {
		t.Error("mid-stream kill reassigned no cells")
	}
	// The metric is also visible on the wire.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Shard["reassigned_cells"] == 0 {
		t.Error("reassigned_cells missing from /metrics")
	}
}

// hostileLine is one wrong cell line a hostile backend sends: either a
// sequence number outside every part (kind "") or one of its assigned
// cells of the given kind, with its true identity but a payload of the
// wrong shape.
type hostileLine struct {
	kind    string
	payload string // JSON members after the cell identity
}

// hostileLines lists, per campaign endpoint, the wrong lines
// TestShardRejectsAlienCells's backend cycles through, one per request.
func hostileLines(t *testing.T) map[string][]hostileLine {
	// An outcome at coordinates no plan cell has.
	outcome, err := json.Marshal(chaos.Outcome{Seed: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	bad := `"chaos":` + string(outcome)
	return map[string][]hostileLine{
		server.GridPath: {
			{"", `"result":{"perf":{}}`},
			{exp.CellPerf, `"result":{"footprint":4096}`},
			{exp.CellPerf, `"result":{"perf":{},"footprint":4096}`},
			{exp.CellPerf, bad},
		},
		server.BatchPath: {
			{exp.CellPerf, `"result":{"footprint":4096}`},
			{exp.CellMem, `"result":{"perf":{},"footprint":4096}`},
			{exp.CellMem, bad},
		},
		server.ChaosPath: {
			{"", bad},
			{exp.CellChaos, bad},
			{exp.CellChaos, `"result":{"footprint":4096}`},
		},
	}
}

// TestShardRejectsAlienCells fronts the shard over one hostile backend
// that answers health probes but streams wrong cells: sequence numbers
// from outside its assigned part, and its assigned cells with every wrong
// payload shape (a perf cell without a perf result or with a footprint, a
// memory cell with a perf result, a chaos outcome at other coordinates,
// and each campaign's payload swapped for another's). The shard must
// reject every such line at the trust boundary — corrupt_lines, never a
// wrong report or a client-side rejection — fail that backend's stream,
// and complete each /v1/grid, /v1/batch and /v1/chaos campaign on the
// honest survivor with byte-identical output.
func TestShardRejectsAlienCells(t *testing.T) {
	serial, serialMem := serialRun(t)
	wantChaos, wantInternal := exp.ChaosReport(1, runtime.NumCPU())
	lines := hostileLines(t)

	var mu sync.Mutex
	requests := map[string]int{}      // per path: which line comes next
	sent := map[string]map[int]bool{} // per path: line indexes sent
	badLines := 0
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		var plan exp.CellPlan
		var part []int
		switch r.URL.Path {
		case server.ChaosPath:
			var req server.ChaosRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			plan, part = req.Plan(), req.Cells
		default:
			var req server.BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			p, err := req.GridPlan()
			if r.URL.Path == server.BatchPath {
				p, err = req.BatchPlan()
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			plan, part = p, req.Cells
		}
		mu.Lock()
		defer mu.Unlock()
		// Send the next line this part has a cell for; a seq outside
		// every part stands in when it has none of any listed kind.
		seq, ln := 100000+part[0], hostileLine{"", `"result":{"perf":{}}`}
		m := plan.Meta(part[0])
		all := lines[r.URL.Path]
	pick:
		for k := 0; k < len(all); k++ {
			i := (requests[r.URL.Path] + k) % len(all)
			for _, c := range part {
				if cm := plan.Meta(c); all[i].kind == "" || cm.Kind == all[i].kind {
					if all[i].kind != "" {
						seq, m = c, cm
					}
					ln = all[i]
					if sent[r.URL.Path] == nil {
						sent[r.URL.Path] = map[int]bool{}
					}
					sent[r.URL.Path][i] = true
					requests[r.URL.Path] = i + 1
					break pick
				}
			}
		}
		badLines++
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"seq":%d,"kind":%q,"workload":%q,"config":%q,%s}`+"\n", seq, m.Kind, m.Workload, m.Config, ln.payload)
		fmt.Fprintf(w, `{"done":true,"cells":%d,"completed":%d}`+"\n", len(part), len(part))
	}))
	t.Cleanup(hostile.Close)
	honest := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(honest.Close)

	// Thresholds out of reach and no hedging: every campaign sends the
	// hostile exactly its part once, so each one meets the next line.
	sh, err := New(Config{
		Backends:         []string{hostile.URL, honest.URL},
		HealthInterval:   50 * time.Millisecond,
		HealthTimeout:    time.Second,
		DownAfter:        1 << 20,
		BreakerThreshold: 1 << 20,
		HedgeAfter:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	c := server.NewClient(front.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	req := server.BatchRequest{Workloads: testWorkloads}
	campaigns := []struct {
		path string
		run  func() (string, error)
		want string
	}{
		{server.GridPath, func() (string, error) { return c.GridReport(ctx, req) }, exp.PerfReport(serial)},
		{server.BatchPath, func() (string, error) { return c.BatchReport(ctx, req) }, exp.Report(serial, serialMem)},
		{server.ChaosPath, func() (string, error) {
			got, internal, err := c.ChaosReport(ctx, server.ChaosRequest{Scale: 1})
			if err == nil && internal != wantInternal {
				err = fmt.Errorf("internal outcomes %d, want %d", internal, wantInternal)
			}
			return got, err
		}, wantChaos},
	}
	for _, cp := range campaigns {
		for range lines[cp.path] {
			before := sh.metrics.corruptLines.Load()
			got, err := cp.run()
			if err != nil {
				t.Fatalf("%s campaign over hostile backend: %v", cp.path, err)
			}
			if got != cp.want {
				t.Fatalf("%s: hostile backend corrupted the assembled report", cp.path)
			}
			if sh.metrics.corruptLines.Load() == before {
				t.Errorf("%s: hostile line drew no corrupt_lines", cp.path)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := sh.metrics.corruptLines.Load(); n != uint64(badLines) {
		t.Errorf("corrupt_lines = %d, hostile sent %d bad lines", n, badLines)
	}
	for path, all := range lines {
		for i, ln := range all {
			if !sent[path][i] {
				// Only possible when the ring gave the hostile no cell of
				// that kind (6 memory cells: 1 run in 64).
				t.Logf("%s: line %d (%s cell, %s) never sent", path, i, ln.kind, ln.payload)
			}
		}
	}
	if n := sh.metrics.reassignedCells.Load(); n == 0 {
		t.Error("hostile backend's part was not reassigned")
	}
}

// TestShardMetricsAggregation: /metrics sums the fleet and reports the
// front tier's own counters.
func TestShardMetricsAggregation(t *testing.T) {
	_, _, c := newFleet(t, 2)
	ctx := context.Background()
	if _, _, err := c.Run(ctx, server.RunRequest{Source: "int main() { return 0; }"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Backends) != 2 {
		t.Fatalf("%d backends in metrics, want 2", len(m.Backends))
	}
	if m.Aggregate.Requests["run"] == 0 || m.Aggregate.Requests["total"] == 0 {
		t.Errorf("aggregate requests %v", m.Aggregate.Requests)
	}
	if m.Shard["proxied"] == 0 || m.Shard["backends_up"] != 2 {
		t.Errorf("shard counters %v", m.Shard)
	}
	// The memo store is fleet-aggregated like every other counter map:
	// the run above must appear as a miss (and an entry) somewhere in the
	// fleet's unified stores.
	if m.Aggregate.Memo == nil {
		t.Fatal("aggregate missing memo section")
	}
	if m.Aggregate.Memo["misses"] == 0 || m.Aggregate.Memo["entries"] == 0 {
		t.Errorf("aggregate memo %v, want misses and entries after a run", m.Aggregate.Memo)
	}
}

package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infat/internal/chaos"
	"infat/internal/exp"
	"infat/internal/memo"
	"infat/internal/server"
	"infat/internal/splitmix"
	"infat/internal/workloads"
)

// TestRingStableOwnership pins the consistent-hashing contract: keys
// spread over every backend, ownership is deterministic, and removing
// one backend moves only that backend's keys.
func TestRingStableOwnership(t *testing.T) {
	r := newRing(3, ringReplicas, func(i int) string { return fmt.Sprintf("http://backend-%d", i) })
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

// newFleet boots n in-process backends plus the shard front tier, which
// probes them every 50 ms and drains one after a single failure, and
// returns a client against the shard.
func newFleet(t *testing.T, n int) (*Shard, []*httptest.Server, *server.Client) {
	t.Helper()
	return newFleetProbing(t, n, 50*time.Millisecond)
}

// newFleetProbing is newFleet with the given health-probe interval.
func newFleetProbing(t *testing.T, n int, probe time.Duration) (*Shard, []*httptest.Server, *server.Client) {
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
		HealthInterval: probe,
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
// report campaign and a temporal one scattered over two backends each
// reassemble to the exact bytes a serial run produces.
func TestShardBatchReportEquivalence(t *testing.T) {
	serial, serialMem := serialRun(t)
	wantTemporal, err := exp.RunReport(exp.TemporalPlan(workloadSet(t), 1), runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}

	_, _, c := newFleet(t, 2)
	ctx := context.Background()
	got, err := c.Report(ctx, server.BatchRequest{Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Report(serial, serialMem); got != want {
		t.Fatalf("shard batch report differs from serial run:\n--- shard ---\n%s\n--- serial ---\n%s", got, want)
	}

	got, err = c.Report(ctx, server.BatchRequest{Plan: server.PlanTemporal, Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantTemporal {
		t.Fatal("shard temporal report differs from serial run")
	}
}

// TestShardFailover: with one backend killed, unary requests fail over
// and a batch campaign is reassigned to the survivor — same bytes.
func TestShardFailover(t *testing.T) {
	serial, serialMem := serialRun(t)

	// No probe runs during the test, so the dead backend stays up until
	// a request to it fails: the unary request or the campaign must fail
	// over, whichever backend owns the request's key.
	sh, backs, c := newFleetProbing(t, 2, time.Hour)
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

	got, err := c.Report(ctx, server.BatchRequest{Workloads: testWorkloads})
	if err != nil {
		t.Fatal(err)
	}
	if want := exp.Report(serial, serialMem); got != want {
		t.Fatal("post-failover shard batch report differs from serial run")
	}
	if sh.metrics["reassigned_cells"].Load() == 0 && sh.metrics["failovers"].Load() == 0 {
		t.Error("failover left no trace in shard metrics")
	}
}

// TestShardHealthDrainsDeadBackend: the health probes alone, with no
// request to the backend, drain a dead backend from /healthz while the
// shard stays ok.
func TestShardHealthDrainsDeadBackend(t *testing.T) {
	_, backs, c := newFleet(t, 2)
	backs[0].Close()
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
	trailer, err := c.BatchStream(ctx, server.BatchRequest{Workloads: testWorkloads, Cells: []int{0, 7, 3}},
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
		"unknown workload":     `{"workloads":["nope"]}`,
		"bad subset":           `{"cells":[99999]}`,
		"unknown field":        `{"bogus":1}`,
		"unknown plan":         `{"plan":"grid"}`,
		"chaos with workloads": `{"plan":"chaos","workloads":["treeadd"]}`,
	} {
		resp, err := http.Post(c.BaseURL+server.BatchPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestShardUnaryRequestErrors pins the shard's own answers on the unary
// routes: an oversized body is 413 and an undecodable one 400, both
// before any backend is asked, and the deleted /v1/workload and
// /v1/chaos are 404; the body-less case list is proxied.
func TestShardUnaryRequestErrors(t *testing.T) {
	sh, _, c := newFleet(t, 1)
	oversized := strings.Repeat(" ", maxBodyBytes+1)
	for _, path := range []string{"/v1/workload", "/v1/chaos"} {
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/run", "/v1/juliet"} {
		for body, want := range map[string]int{"{": http.StatusBadRequest, oversized: http.StatusRequestEntityTooLarge} {
			resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s (%d-byte body): status %d, want %d", path, len(body), resp.StatusCode, want)
			}
		}
	}
	if n := sh.metrics["proxied"].Load(); n != 0 {
		t.Errorf("rejected requests reached a backend: proxied = %d", n)
	}
	resp, err := http.Get(c.BaseURL + "/v1/juliet")
	if err != nil {
		t.Fatal(err)
	}
	// The shard counts the exchange after relaying the body, and the body
	// ends only once its handler has returned: read to the end first.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sh.metrics["proxied"].Load() != 1 {
		t.Errorf("GET /v1/juliet: status %d, proxied %d; want 200 through one backend", resp.StatusCode, sh.metrics["proxied"].Load())
	}
}

// TestShardNoBackend: a unary request whose every backend is unreachable
// — here the only one, a closed listener — is answered 502 "no backend
// available" by the shard once failover has tried them all, and counted
// under no_backend.
func TestShardNoBackend(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	sh, err := New(Config{Backends: []string{dead.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)

	resp, err := http.Post(front.URL+"/v1/run", "application/json", strings.NewReader(`{"source":"int main() { return 0; }"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || e.Error != "no backend available" {
		t.Errorf("status %d, error %q; want 502 \"no backend available\"", resp.StatusCode, e.Error)
	}
	if n := sh.metrics["no_backend"].Load(); n != 1 {
		t.Errorf("no_backend = %d, want 1", n)
	}
}

// TestProbeDelayBackoffAndJitter pins the probe pacing contract: the
// delay doubles per consecutive failure up to 8x the base, carries at
// most a quarter-interval of jitter, is deterministic under a seed, and
// differs across seeds (no fleet-wide lockstep).
func TestProbeDelayBackoffAndJitter(t *testing.T) {
	const base = 100 * time.Millisecond
	rng := splitmix.New(42)
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
	r1, r2 := splitmix.New(7), splitmix.New(7)
	for i := 0; i < 16; i++ {
		if d1, d2 := probeDelay(base, i%4, r1), probeDelay(base, i%4, r2); d1 != d2 {
			t.Fatalf("seeded probe schedule not reproducible: %v vs %v at step %d", d1, d2, i)
		}
	}
	// Different seeds must desynchronize somewhere.
	ra, rb := splitmix.New(1), splitmix.New(2)
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

// TestShardDrainsBackendFailingRequests: a backend that passes its
// health probes but aborts every request is drained by its request
// failures alone. Until then its requests fail over to the survivor with
// the right answers; once drained it is sent nothing; and its next good
// probe readmits it.
func TestShardDrainsBackendFailingRequests(t *testing.T) {
	var posts atomic.Int64
	probed := server.New(server.Config{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			panic(http.ErrAbortHandler) // connection cut before any response byte
		}
		probed.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	good := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(good.Close)
	// Probes far apart, so only request outcomes move the verdict until
	// the test probes by hand.
	sh, err := New(Config{Backends: []string{flaky.URL, good.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	c := server.NewClient(front.URL)
	ctx := context.Background()

	// Programs the flaky backend owns, each printing its own number.
	var owned []int64
	for n := int64(0); len(owned) <= DefaultDownAfter; n++ {
		if sh.ring.owner(runRouteKey(printProgram(n)), func(int) bool { return true }) == 0 {
			owned = append(owned, n)
		}
	}
	run := func(n int64) {
		t.Helper()
		resp, _, err := c.Run(ctx, server.RunRequest{Source: printProgram(n)})
		if err != nil {
			t.Fatalf("run %d: %v", n, err)
		}
		if len(resp.Output) != 1 || resp.Output[0] != n {
			t.Fatalf("run %d printed %v", n, resp.Output)
		}
	}
	healthz := func() map[string]string {
		t.Helper()
		var h map[string]string
		getJSON(t, front.URL+"/healthz", &h)
		return h
	}
	counters := func() map[string]uint64 {
		t.Helper()
		var m MetricsResponse
		getJSON(t, front.URL+"/metrics", &m)
		return m.Shard
	}

	for i, n := range owned[:DefaultDownAfter] {
		run(n)
		if got := posts.Load(); got != int64(i+1) {
			t.Fatalf("after %d requests the flaky backend saw %d", i+1, got)
		}
	}
	if h := healthz(); h[flaky.URL] != "down" || h[good.URL] != "up" || h["status"] != "ok" {
		t.Fatalf("after %d failed requests /healthz = %v, want the flaky backend down", DefaultDownAfter, h)
	}
	if m := counters(); m["backends_up"] != 1 || m["transitions"] != 1 || m["failovers"] != DefaultDownAfter {
		t.Fatalf("after draining: shard counters %v", m)
	}

	run(owned[DefaultDownAfter])
	if got := posts.Load(); got != DefaultDownAfter {
		t.Errorf("drained backend was sent a request: %d posts, want %d", got, DefaultDownAfter)
	}

	sh.probe(sh.backends[0])
	if h := healthz(); h[flaky.URL] != "up" {
		t.Errorf("after a good probe /healthz = %v, want the flaky backend up", h)
	}
	if m := counters(); m["backends_up"] != 2 || m["transitions"] != 2 {
		t.Errorf("after readmission: shard counters %v", m)
	}
}

// printProgram is a MiniC program that prints n.
func printProgram(n int64) string {
	return fmt.Sprintf("int main() { print(%d); return 0; }", n)
}

// getJSON fetches url and decodes its JSON body into dst, whatever the
// status.
func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestHealthVerdictRace races one failure against one success on a
// backend one failure short of DownAfter, many times over. Whatever the
// interleaving, a backend whose failure streak ends at zero must read up:
// left down, it would stay drained until its next probe.
func TestHealthVerdictRace(t *testing.T) {
	sh, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	b := sh.backends[0]
	const trials = 50_000
	stuck := 0
	for i := 0; i < trials; i++ {
		sh.noteSuccess(b)
		for j := 1; j < DefaultDownAfter; j++ {
			sh.noteFailure(b)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); <-start; sh.noteFailure(b) }()
		go func() { defer wg.Done(); <-start; sh.noteSuccess(b) }()
		close(start)
		wg.Wait()
		if b.fails.Load() == 0 && !b.isUp() {
			stuck++
		}
	}
	if stuck > 0 {
		t.Errorf("%d of %d races left the backend down with a zero failure streak", stuck, trials)
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
// chaos campaign — connections dropped while its part is streaming
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
	req := server.BatchRequest{Plan: server.PlanChaos, Scale: 1}
	camp, err := req.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	a := camp.NewAssembly()
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
	if _, err := c.BatchStream(ctx, req, func(cell server.BatchCell) error {
		kill.Do(startKiller)
		if cell.Error != "" {
			return fmt.Errorf("cell %d: error=%q", cell.Seq, cell.Error)
		}
		return a.Add(cell)
	}); err != nil {
		t.Fatalf("chaos campaign with mid-stream kill: %v", err)
	}
	<-killDone
	got, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := exp.ChaosReport(1, runtime.NumCPU()); got != want {
		t.Fatal("post-kill chaos report differs from serial campaign")
	}
	if n := sh.metrics["reassigned_cells"].Load(); n == 0 {
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

// hostileLines lists, per payload type — the report grid's (plans report
// and temporal) and the chaos campaign's — the wrong lines
// TestShardRejectsAlienCells's backend cycles through, one per request.
func hostileLines(t *testing.T) map[string][]hostileLine {
	// An outcome at coordinates no plan cell has.
	outcome, err := json.Marshal(chaos.Outcome{Seed: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	bad := `"chaos":` + string(outcome)
	return map[string][]hostileLine{
		server.PlanReport: {
			{"", `"result":{"perf":{}}`},
			{exp.CellPerf, `"result":{"footprint":4096}`},
			{exp.CellPerf, `"result":{"perf":{},"footprint":4096}`},
			{exp.CellPerf, bad},
			{exp.CellMem, `"result":{"perf":{},"footprint":4096}`},
			{exp.CellMem, bad},
		},
		server.PlanChaos: {
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
// and complete each temporal, report and chaos campaign on the honest
// survivor with byte-identical output.
func TestShardRejectsAlienCells(t *testing.T) {
	serial, serialMem := serialRun(t)
	wantChaos, _ := exp.ChaosReport(1, runtime.NumCPU())
	wantTemporal, err := exp.RunReport(exp.TemporalPlan(workloadSet(t), 1), runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	lines := hostileLines(t)

	var mu sync.Mutex
	requests := map[string]int{}      // per payload type: which line comes next
	sent := map[string]map[int]bool{} // per payload type: line indexes sent
	badLines := 0
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		var req server.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		plan, err := req.Resolve(nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		part, kind := req.Cells, server.PlanReport
		if req.Plan == server.PlanChaos {
			kind = server.PlanChaos
		}
		mu.Lock()
		defer mu.Unlock()
		// Send the next line this part has a cell for; a seq outside
		// every part stands in when it has none of any listed kind.
		seq, ln := 100000+part[0], hostileLine{"", `"result":{"perf":{}}`}
		m := plan.Meta(part[0])
		all := lines[kind]
	pick:
		for k := 0; k < len(all); k++ {
			i := (requests[kind] + k) % len(all)
			for _, c := range part {
				if cm := plan.Meta(c); all[i].kind == "" || cm.Kind == all[i].kind {
					if all[i].kind != "" {
						seq, m = c, cm
					}
					ln = all[i]
					if sent[kind] == nil {
						sent[kind] = map[int]bool{}
					}
					sent[kind][i] = true
					requests[kind] = i + 1
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
	honest := httptest.NewUnstartedServer(nil)
	t.Cleanup(honest.Close)

	// No draining and no hedging: every campaign sends the
	// hostile exactly one chunk (it reports no workers, so it is topped
	// up only once that chunk is delivered, which it never is), so each
	// campaign meets the next line. The honest backend holds its streams
	// until the hostile's chunk has moved: a hedge waits for the
	// campaign's first line and goes to a backend still in the campaign,
	// so with the hostile out before any line, none is sent.
	sh, err := New(Config{
		Backends:       []string{hostile.URL, "http://" + honest.Listener.Addr().String()},
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
		DownAfter:      1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	var moved atomic.Uint64 // reassigned_cells before the running campaign
	honest.Config.Handler = holdStreams(server.New(server.Config{}), func() bool {
		return sh.metrics["reassigned_cells"].Load() > moved.Load()
	})
	honest.Start()
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	c := server.NewClient(front.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	campaigns := []struct {
		req  server.BatchRequest
		want string
	}{
		{server.BatchRequest{Plan: server.PlanTemporal, Workloads: testWorkloads}, wantTemporal},
		{server.BatchRequest{Workloads: testWorkloads}, exp.Report(serial, serialMem)},
		{server.BatchRequest{Plan: server.PlanChaos, Scale: 1}, wantChaos},
	}
	for _, cp := range campaigns {
		kind := server.PlanReport
		if cp.req.Plan == server.PlanChaos {
			kind = server.PlanChaos
		}
		for range lines[kind] {
			// Forget which backend served each cell: a repeated campaign
			// would otherwise send every cell back to the honest backend
			// and never meet the hostile's next line.
			sh.dirMu.Lock()
			clear(sh.dir)
			sh.dirMu.Unlock()
			moved.Store(sh.metrics["reassigned_cells"].Load())
			before := sh.metrics["corrupt_lines"].Load()
			got, err := c.Report(ctx, cp.req)
			if err != nil {
				t.Fatalf("%+v campaign over hostile backend: %v", cp.req, err)
			}
			if got != cp.want {
				t.Fatalf("%+v: hostile backend corrupted the assembled report", cp.req)
			}
			if sh.metrics["corrupt_lines"].Load() == before {
				t.Errorf("%+v: hostile line drew no corrupt_lines", cp.req)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := sh.metrics["corrupt_lines"].Load(); n != uint64(badLines) {
		t.Errorf("corrupt_lines = %d, hostile sent %d bad lines", n, badLines)
	}
	for kind, all := range lines {
		for i, ln := range all {
			if !sent[kind][i] {
				// Only possible when the ring gave the hostile no cell of
				// that kind (6 memory cells: 1 run in 64).
				t.Logf("%s: line %d (%s cell, %s) never sent", kind, i, ln.kind, ln.payload)
			}
		}
	}
	if n := sh.metrics["reassigned_cells"].Load(); n == 0 {
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

// TestShardMetricsKeys pins the shard section of /metrics: exactly the
// front tier's twelve counters plus backends_up.
func TestShardMetricsKeys(t *testing.T) {
	_, _, c := newFleet(t, 2)
	var m MetricsResponse
	getJSON(t, c.BaseURL+"/metrics", &m)
	var got []string
	for k := range m.Shard {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"backends_up", "batch_cells", "batch_streams", "corrupt_lines", "dup_suppressed", "failovers",
		"hedged_cells", "no_backend", "proxied", "reassigned_cells", "shed_cells", "stolen_cells", "transitions"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("shard section keys %v, want %v", got, want)
	}
	if m.Shard["backends_up"] != 2 {
		t.Errorf("backends_up = %d, want 2", m.Shard["backends_up"])
	}
}

// TestShardRejectsOutOfRangeScale: a campaign request every backend would
// reject — a scale one above the bound on the report and chaos plans, a
// mem_scale whose product with the scale overflows, an unknown plan, a
// field its plan does not take, or a body past
// server.MaxCampaignBodyBytes — is answered 400 by the shard itself,
// resolved through the backends' own campaign table. No backend is
// contacted, so the request can neither stream a campaign of error cells
// nor count a backend's 400 as a backend failure and drain a healthy
// fleet.
func TestShardRejectsOutOfRangeScale(t *testing.T) {
	var posts atomic.Int64
	backend := server.New(server.Config{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	// Probes far apart, so only request outcomes could move backends_up.
	sh, err := New(Config{Backends: []string{ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)

	for _, body := range []string{
		fmt.Sprintf(`{"scale":%d}`, server.MaxScale+1),
		fmt.Sprintf(`{"scale":%d,"cells":[0,1,2,3,4]}`, server.MaxScale+1),
		fmt.Sprintf(`{"plan":"chaos","scale":%d}`, server.MaxScale+1),
		`{"workloads":["treeadd"],"scale":2,"mem_scale":4611686018427387904,"cells":[5]}`,
		`{"plan":"grid","cells":[0]}`,
		`{"plan":"chaos","workloads":["treeadd"],"cells":[0]}`,
		`{"plan":"temporal","mem_scale":2,"cells":[0]}`,
		// Past the body bound a backend reads, but valid JSON.
		`{"plan":"chaos","scale":1` + strings.Repeat(" ", 2<<20) + `,"cells":[0]}`,
	} {
		for attempt := 0; attempt < 2; attempt++ {
			resp, err := http.Post(front.URL+server.BatchPath, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%.80s: shard status %d, want 400", body, resp.StatusCode)
			}
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("rejected requests reached the backend %d times", n)
	}
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if up := m.Shard["backends_up"]; up != 1 {
		t.Errorf("backends_up = %d after rejected requests, want 1", up)
	}
}

// fleetByHome creates n unstarted backend servers ordered by how many of
// plan's cells their ring arcs own, most first, so a test can slow down
// or hold back the backend with the most cells to take.
func fleetByHome(t *testing.T, n int, plan exp.CellPlan) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(servers[i].Close)
	}
	r := newRing(n, ringReplicas, func(i int) string { return "http://" + servers[i].Listener.Addr().String() })
	owned := make(map[*httptest.Server]int)
	for c := 0; c < plan.NumCells(); c++ {
		owned[servers[r.owner(plan.Key(c), func(int) bool { return true })]]++
	}
	sort.SliceStable(servers, func(i, j int) bool { return owned[servers[i]] > owned[servers[j]] })
	return servers
}

// fleetMemo sums the backends' memo hit and miss counters.
func fleetMemo(t *testing.T, backs []*httptest.Server) (hits, misses uint64) {
	t.Helper()
	for _, b := range backs {
		m, err := server.NewClient(b.URL).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hits += m.Memo["hits"]
		misses += m.Memo["misses"]
	}
	return hits, misses
}

// TestShardStealsFromSlowBackend: the backend owning the most cells
// streams slowly, so the other one runs out of its own cells first and
// takes the slow one's unstarted cells. The report stays byte-identical,
// every cell is computed exactly once, and a replay sends every cell
// back to the backend that computed it — all memo hits, nothing stolen.
func TestShardStealsFromSlowBackend(t *testing.T) {
	req := server.BatchRequest{Plan: server.PlanChaos, Scale: 1}
	plan, err := req.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	backs := fleetByHome(t, 2, plan)
	backs[0].Config.Handler = throttledHandler{h: server.New(server.Config{}), delay: 10 * time.Millisecond}
	backs[1].Config.Handler = server.New(server.Config{})
	for _, b := range backs {
		b.Start()
	}
	sh, err := New(Config{Backends: []string{backs[0].URL, backs[1].URL}, HealthInterval: 50 * time.Millisecond, HealthTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	c := server.NewClient(front.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	want, _ := exp.ChaosReport(1, runtime.NumCPU())
	n := uint64(plan.NumCells())

	got, err := c.Report(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("chaos report over a slow backend differs from the serial campaign")
	}
	stolen := sh.metrics["stolen_cells"].Load()
	if stolen == 0 {
		t.Error("the fast backend took none of the slow backend's cells")
	}
	if hits, misses := fleetMemo(t, backs); hits != 0 || misses != n {
		t.Errorf("cold campaign: %d memo hits and %d misses over %d cells, want 0 and %d", hits, misses, n, n)
	}

	if got, err = c.Report(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("replayed chaos report differs from the serial campaign")
	}
	if hits, misses := fleetMemo(t, backs); hits != n || misses != n {
		t.Errorf("replay: %d memo hits and %d misses, want %d and %d", hits, misses, n, n)
	}
	if s := sh.metrics["stolen_cells"].Load(); s != stolen {
		t.Errorf("replay moved cells: stolen_cells %d -> %d", stolen, s)
	}
	for name, v := range map[string]uint64{"hedged_cells": sh.metrics["hedged_cells"].Load(), "reassigned_cells": sh.metrics["reassigned_cells"].Load()} {
		if v != 0 {
			t.Errorf("%s = %d on a healthy fleet", name, v)
		}
	}
}

// TestDirectoryBound pins the bound the served-cell directory's comment
// states: every cell an accepted /v1/batch request can enumerate — the
// report plan at every admissible scale and mem scale, the temporal and
// chaos plans at every admissible scale — has one of 2,160 digests.
func TestDirectoryBound(t *testing.T) {
	digests := map[memo.Digest]bool{}
	add := func(req server.BatchRequest) {
		camp, err := req.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < camp.NumCells(); i++ {
			digests[camp.CellDigest(i)] = true
		}
	}
	for scale := 1; scale <= server.MaxScale; scale++ {
		for memScale := 1; scale*memScale <= server.MaxScale*exp.MemScale; memScale++ {
			add(server.BatchRequest{Scale: scale, MemScale: memScale})
		}
		add(server.BatchRequest{Plan: server.PlanTemporal, Scale: scale})
		add(server.BatchRequest{Plan: server.PlanChaos, Scale: scale})
	}
	if len(digests) != 2160 {
		t.Errorf("accepted campaigns enumerate %d distinct cells, the directory's stated bound is 2160", len(digests))
	}
}

// TestShardEarlyTrailerMovesCells: a backend that closes its stream with
// a trailer before sending the cells it was given has failed the relay,
// however healthy it looks. It is excluded from the campaign, its cells
// move to the honest backend, and the report stays exact; it is never
// sent the same cells again.
func TestShardEarlyTrailerMovesCells(t *testing.T) {
	var posts atomic.Int64
	lazy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		posts.Add(1)
		w.Header().Set("Content-Type", server.NDJSONContentType)
		fmt.Fprintln(w, `{"done":true,"cells":0,"completed":0}`)
	}))
	t.Cleanup(lazy.Close)
	// The honest backend holds its streams until the lazy one's cells
	// have moved, so no hedge can reach the lazy backend: hedges wait for
	// the campaign's first line.
	honest := httptest.NewUnstartedServer(nil)
	t.Cleanup(honest.Close)
	sh, err := New(Config{
		Backends:       []string{lazy.URL, "http://" + honest.Listener.Addr().String()},
		HealthInterval: time.Hour,
		DownAfter:      1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	honest.Config.Handler = holdStreams(server.New(server.Config{}), func() bool {
		return sh.metrics["reassigned_cells"].Load() > 0
	})
	honest.Start()
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	got, err := server.NewClient(front.URL).Report(ctx, server.BatchRequest{Plan: server.PlanChaos, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := exp.ChaosReport(1, runtime.NumCPU()); got != want {
		t.Fatal("chaos report over a backend that drops its cells differs from the serial campaign")
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("cell-dropping backend received %d requests, want 1", n)
	}
	if sh.metrics["reassigned_cells"].Load() == 0 {
		t.Error("the dropped cells were not reassigned")
	}
}

// holdStreams delays every campaign stream h serves until ready reports
// true.
func holdStreams(h http.Handler, ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for r.Method == http.MethodPost && !ready() && r.Context().Err() == nil {
			time.Sleep(time.Millisecond)
		}
		h.ServeHTTP(w, r)
	})
}

// TestShardHedgeEndsStalledRelay: one backend accepts every campaign
// stream and then stalls until the shard hangs up; the other is honest.
// Under the default relay timeout of two minutes, the stalled backend's
// cells are hedged to the honest one once its silence outlasts the
// campaign's pace, its relay is cancelled as soon as they are
// delivered, and the trailer comes within 30 s with the byte-identical
// chaos report.
func TestShardHedgeEndsStalledRelay(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", server.NDJSONContentType)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(stalled.Close)
	honest := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(honest.Close)
	sh, err := New(Config{Backends: []string{stalled.URL, honest.URL}, HealthInterval: 50 * time.Millisecond, HealthTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	front := httptest.NewServer(sh)
	t.Cleanup(front.Close)
	// Release a relay still stalled when the test ends, so a failing run
	// does not wait out the relay timeout in cleanup too.
	t.Cleanup(stalled.CloseClientConnections)

	const within = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	start := time.Now()
	got, err := server.NewClient(front.URL).Report(ctx, server.BatchRequest{Plan: server.PlanChaos, Scale: 1})
	if err != nil {
		t.Fatalf("chaos campaign over a stalled backend: no trailer within %v: %v", within, err)
	}
	t.Logf("trailer after %v, %d cells hedged", time.Since(start).Round(time.Millisecond), sh.metrics["hedged_cells"].Load())
	if want, _ := exp.ChaosReport(1, runtime.NumCPU()); got != want {
		t.Fatal("chaos report over a stalled backend differs from the serial campaign")
	}
	if sh.metrics["hedged_cells"].Load() == 0 {
		t.Error("the stalled backend's cells were not hedged")
	}
}

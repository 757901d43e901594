package netchaos

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"infat/internal/server"
)

// serveHandler boots h on a loopback listener and returns its base URL.
func serveHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// fakeStream is a minimal NDJSON campaign backend: three cell lines and
// a trailer.
func fakeStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, `{"seq":%d,"kind":"perf","workload":"w","config":"c"}`+"\n", i)
	}
	fmt.Fprintln(w, `{"done":true,"cells":3,"completed":3}`)
}

// streamLines posts to the proxy and returns the raw response lines, or
// an error for transport-level failures.
func streamLines(t *testing.T, base string) ([]string, error) {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader("{}"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines, sc.Err()
}

func newTestProxy(t *testing.T, fault Fault, maxFaults int) (*Proxy, string) {
	t.Helper()
	backend := serveHandler(t, http.HandlerFunc(fakeStream))
	p := New(Config{Target: backend, Fault: fault, Seed: 7, MaxFaults: maxFaults,
		Latency: 5 * time.Millisecond, StallCap: 200 * time.Millisecond})
	return p, serveHandler(t, p)
}

func TestProxyPassthrough(t *testing.T) {
	_, base := newTestProxy(t, FaultNone, -1)
	lines, err := streamLines(t, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 || !strings.Contains(lines[3], `"done":true`) {
		t.Fatalf("passthrough lines = %q", lines)
	}
}

func TestProxyRefuse(t *testing.T) {
	p, base := newTestProxy(t, FaultRefuse, 1)
	if _, err := streamLines(t, base); err == nil {
		t.Fatal("refused request produced no transport error")
	}
	if p.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", p.Injected())
	}
	// Budget exhausted: the next request passes clean.
	lines, err := streamLines(t, base)
	if err != nil || len(lines) != 4 {
		t.Fatalf("post-budget stream: lines=%q err=%v", lines, err)
	}
}

func TestProxyReset(t *testing.T) {
	_, base := newTestProxy(t, FaultReset, 1)
	lines, err := streamLines(t, base)
	if err == nil {
		t.Fatalf("reset stream ended cleanly: %q", lines)
	}
}

func TestProxyTruncateDropsTrailer(t *testing.T) {
	_, base := newTestProxy(t, FaultTruncate, 1)
	lines, err := streamLines(t, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("truncated stream has %d lines, want 3 (no trailer)", len(lines))
	}
	for _, l := range lines {
		if strings.Contains(l, `"done":true`) {
			t.Fatalf("trailer survived truncation: %q", l)
		}
	}
}

func TestProxyCorruptManglesFirstLine(t *testing.T) {
	// Try several seeds so every corruption mode shape is exercised.
	for seed := uint64(1); seed <= 3; seed++ {
		backend := serveHandler(t, http.HandlerFunc(fakeStream))
		p := New(Config{Target: backend, Fault: FaultCorrupt, Seed: seed, MaxFaults: 1})
		base := serveHandler(t, p)
		lines, err := streamLines(t, base)
		if err != nil {
			t.Fatal(err)
		}
		if lines[0] == `{"seq":0,"kind":"perf","workload":"w","config":"c"}` {
			t.Fatalf("seed %d: first line not corrupted: %q", seed, lines[0])
		}
	}
}

func TestProxyDuplicateRepeatsFirstLine(t *testing.T) {
	_, base := newTestProxy(t, FaultDuplicate, 1)
	lines, err := streamLines(t, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 || lines[0] != lines[1] {
		t.Fatalf("duplicate stream = %q", lines)
	}
}

func TestProxyBlackholeStallsThenDies(t *testing.T) {
	_, base := newTestProxy(t, FaultBlackhole, 1)
	start := time.Now()
	_, err := streamLines(t, base)
	if err == nil {
		t.Fatal("blackholed stream ended cleanly")
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("blackhole died after %v, want a stall near the cap", d)
	}
}

func TestProxyHealthProbesPassClean(t *testing.T) {
	backend := serveHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	}))
	p := New(Config{Target: backend, Fault: FaultRefuse, MaxFaults: -1})
	base := serveHandler(t, p)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET through refusing proxy failed: %v", err)
		}
		resp.Body.Close()
	}
	if p.Injected() != 0 {
		t.Fatalf("GETs drew %d faults, want 0", p.Injected())
	}
}

// TestProxyForwardsStreamHeaders: a clean proxy passes on the headers a
// campaign stream opens with. Without X-Ifp-Workers a shard behind the
// proxy never learns the backend's worker count and scatters as if it
// ran one cell at a time.
func TestProxyForwardsStreamHeaders(t *testing.T) {
	base := serveHandler(t, New(Config{Target: serveHandler(t, server.New(server.Config{Workers: 3}))}))
	resp, err := http.Post(base+server.ChaosPath, "application/json", strings.NewReader(`{"cells":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	for h, want := range map[string]string{
		"Content-Type":       server.NDJSONContentType,
		server.CellsHeader:   "1",
		server.MemoHeader:    "0",
		server.WorkersHeader: "3",
	} {
		if got := resp.Header.Get(h); got != want {
			t.Errorf("%s through the proxy = %q, want %q", h, got, want)
		}
	}
}

// TestClientTruncatedStreamNoPartialReport is the trailer-contract
// regression: a stream that dies without its trailer must surface
// ErrTruncatedStream and no partial report, and the backend's worker
// slots must all be released — proven by the same client completing the
// identical campaign once the fault budget is spent.
func TestClientTruncatedStreamNoPartialReport(t *testing.T) {
	backendURL := serveHandler(t, server.New(server.Config{}))
	p := New(Config{Target: backendURL, Fault: FaultTruncate, Seed: 3, MaxFaults: 1})
	base := serveHandler(t, p)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := server.NewClientSeeded(base, 3)
	req := server.BatchRequest{Workloads: []string{"treeadd"}}

	report, err := c.BatchReport(ctx, req)
	if !errors.Is(err, server.ErrTruncatedStream) {
		t.Fatalf("truncated campaign error = %v, want ErrTruncatedStream", err)
	}
	if report != "" {
		t.Fatalf("truncated campaign surfaced a partial report (%d bytes)", len(report))
	}

	// Fault budget spent: the same client must now succeed, which also
	// proves the truncated attempt released its worker slots.
	got, err := c.BatchReport(ctx, req)
	if err != nil || got == "" {
		t.Fatalf("post-truncation campaign: err=%v", err)
	}
	// The scrape itself counts as one in-flight request; anything above
	// that is a slot the truncated campaign leaked. The gauge drops just
	// after the trailer flush, so give the handler epilogue a moment.
	bc := server.NewClient(backendURL)
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, err := bc.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.InFlight <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend still reports %d in-flight requests", m.InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignSmoke runs a reduced grid through the full harness: the
// control arm and two nasty faults, one seed, batch leg only. The full
// grid is the CLI/CI -netchaos gate; this keeps `go test` minutes-free
// while still proving the campaign machinery end to end, the control
// arm's healthy-fleet gates included.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign boots a full serving stack")
	}
	res, err := RunCampaign(CampaignConfig{
		Workloads: []string{"treeadd"},
		Seeds:     []uint64{1},
		FaultSet:  []Fault{FaultNone, FaultTruncate, FaultCorrupt},
		SkipChaos: true,
		MaxFaults: 2,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	sum := res.Summarize()
	if sum.Runs != 3 || sum.Failed != 0 || !sum.AllIdentical || sum.Lost != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Injected == 0 {
		t.Fatal("no faults injected")
	}
}

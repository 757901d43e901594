package server

// Tests for the unified content-addressed memo store on the serving
// tier: cross-endpoint cell sharing (/v1/workload and the streaming
// campaigns hit the same canonical digests), warm-stream byte identity,
// /metrics exposure, and the disk-backed snapshot round trip.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"infat/internal/exp"
	"infat/internal/memo"
)

// postNDJSON issues a raw campaign POST and returns the response header,
// the cell lines sorted by seq, and the decoded trailer.
func postNDJSON(t *testing.T, url, body string) (http.Header, [][]byte, BatchTrailer) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines [][]byte
	var trailer BatchTrailer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(lines, func(i, j int) bool {
		seq := func(b []byte) int {
			var c struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal(b, &c); err != nil {
				t.Fatal(err)
			}
			return c.Seq
		}
		return seq(lines[i]) < seq(lines[j])
	})
	return resp.Header, lines, trailer
}

// TestMemoCrossEndpointWorkloadToBatch: a cell computed by the unary
// /v1/workload endpoint is warm for a later grid stream — the stream's
// MemoHeader counts it, and serving it costs no runtime-pool checkout.
func TestMemoCrossEndpointWorkloadToBatch(t *testing.T) {
	s, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	if _, err := c.Workload(ctx, WorkloadRequest{Name: "treeadd", Mode: "baseline"}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := s.memo.Stats().Hits

	hdr, lines, trailer := postNDJSON(t, c.BaseURL+GridPath, `{"workloads":["treeadd"]}`)
	warm, err := strconv.Atoi(hdr.Get(MemoHeader))
	if err != nil || warm < 1 {
		t.Fatalf("%s = %q, want >= 1 warm cell", MemoHeader, hdr.Get(MemoHeader))
	}
	if trailer.Failed != 0 || trailer.Completed != len(lines) {
		t.Fatalf("trailer = %+v over %d lines", trailer, len(lines))
	}
	if hits := s.memo.Stats().Hits; hits <= hitsBefore {
		t.Fatalf("grid stream recorded no memo hits (before=%d after=%d)", hitsBefore, hits)
	}
}

// TestMemoCrossEndpointBatchToWorkload: after a grid stream every one of
// its cells answers /v1/workload instantly as a memo hit, byte-identical
// to a cold unary computation on an independent server.
func TestMemoCrossEndpointBatchToWorkload(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	_, coldC, coldDone := newTestServer(t, Config{})
	defer coldDone()
	ctx := context.Background()

	postNDJSON(t, c.BaseURL+GridPath, `{"workloads":["treeadd"]}`)

	req := WorkloadRequest{Name: "treeadd", Mode: "baseline"}
	body, _ := json.Marshal(req)
	resp, err := http.Post(c.BaseURL+"/v1/workload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(MemoHeader); got != "hit" {
		t.Fatalf("%s = %q after grid stream, want \"hit\"", MemoHeader, got)
	}
	var warmResp WorkloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&warmResp); err != nil {
		t.Fatal(err)
	}
	coldResp, err := coldC.Workload(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warmResp != *coldResp {
		t.Fatalf("memoized workload response %+v differs from cold %+v", warmResp, *coldResp)
	}
}

// TestMemoBatchMemoryCellsNeverAnswerWorkload: a /v1/batch stream's
// memory cells run untimed at scale*MemScale, the same coordinates a
// /v1/workload request with scale=4 names. They are keyed in their own
// footprint domain, so that request must still get the timed answer a
// cold server computes.
func TestMemoBatchMemoryCellsNeverAnswerWorkload(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	_, coldC, coldDone := newTestServer(t, Config{})
	defer coldDone()
	ctx := context.Background()

	_, lines, trailer := postNDJSON(t, c.BaseURL+BatchPath, `{"workloads":["treeadd"]}`)
	if trailer.Failed != 0 || trailer.Completed != len(lines) {
		t.Fatalf("trailer = %+v over %d lines", trailer, len(lines))
	}
	for _, mode := range []string{"baseline", "subheap", "wrapped"} {
		req := WorkloadRequest{Name: "treeadd", Mode: mode, Scale: exp.MemScale}
		got, err := c.Workload(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coldC.Workload(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != want.Counters || *got != *want {
			t.Fatalf("%s: /v1/workload after a batch stream answered %+v, a cold server %+v", mode, *got, *want)
		}
	}
}

// TestMemoWarmStreamByteIdentical: a repeated campaign stream serves
// every cell from the store — the MemoHeader preview says so up front —
// and its cell lines are byte-identical to the cold pass.
func TestMemoWarmStreamByteIdentical(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	const body = `{"workloads":["treeadd","health"]}`

	for _, path := range []string{BatchPath, ChaosPath} {
		reqBody := body
		if path == ChaosPath {
			reqBody = `{}`
		}
		coldHdr, cold, coldTrailer := postNDJSON(t, c.BaseURL+path, reqBody)
		if got, _ := strconv.Atoi(coldHdr.Get(MemoHeader)); got != 0 {
			t.Fatalf("%s: cold stream claims %d warm cells", path, got)
		}
		warmHdr, warm, warmTrailer := postNDJSON(t, c.BaseURL+path, reqBody)
		if got, _ := strconv.Atoi(warmHdr.Get(MemoHeader)); got != len(cold) {
			t.Fatalf("%s: warm stream claims %d warm cells, want %d", path, got, len(cold))
		}
		if coldTrailer != warmTrailer {
			t.Fatalf("%s: trailers differ: %+v vs %+v", path, coldTrailer, warmTrailer)
		}
		if len(cold) != len(warm) {
			t.Fatalf("%s: %d cold lines vs %d warm lines", path, len(cold), len(warm))
		}
		for i := range cold {
			if !bytes.Equal(cold[i], warm[i]) {
				t.Fatalf("%s: cell line %d differs:\ncold: %s\nwarm: %s", path, i, cold[i], warm[i])
			}
		}
	}
}

// TestMetricsMemoSection: after a warm campaign the /metrics snapshot
// reports the unified store (hits, entries, bytes) alongside the
// run-only cache slice PR 2 clients read.
func TestMetricsMemoSection(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	postNDJSON(t, c.BaseURL+GridPath, `{"workloads":["treeadd"]}`)
	postNDJSON(t, c.BaseURL+GridPath, `{"workloads":["treeadd"]}`)
	if _, _, err := c.Run(ctx, RunRequest{Source: cleanProg}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(ctx, RunRequest{Source: cleanProg}); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Memo == nil {
		t.Fatal("metrics snapshot missing memo section")
	}
	for _, key := range []string{"hits", "entries", "bytes"} {
		if snap.Memo[key] == 0 {
			t.Errorf("memo[%q] = 0 after warm campaign (%v)", key, snap.Memo)
		}
	}
	// The cache map stays the run endpoint's own slice: exactly one miss
	// and one hit from the pair of identical /v1/run submissions.
	if snap.Cache["misses"] != 1 || snap.Cache["hits"] != 1 {
		t.Errorf("cache slice = %v, want 1 hit / 1 miss (run kind only)", snap.Cache)
	}
	if snap.Memo["hits"] <= snap.Cache["hits"] {
		t.Errorf("memo hits %d not above run-only hits %d despite warm grid",
			snap.Memo["hits"], snap.Cache["hits"])
	}
}

// TestServerMemoSnapshotRoundTrip: a server with -memo-dir persists its
// store on SaveMemo and a fresh server over the same directory answers
// the same cell as a hit without recomputing.
func TestServerMemoSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, c1, done1 := newTestServer(t, Config{MemoDir: dir})
	req := WorkloadRequest{Name: "treeadd", Mode: "baseline"}
	cold, err := c1.Workload(ctx, req)
	if err != nil {
		done1()
		t.Fatal(err)
	}
	if err := s1.SaveMemo(); err != nil {
		done1()
		t.Fatal(err)
	}
	done1()

	s2, c2, done2 := newTestServer(t, Config{MemoDir: dir})
	defer done2()
	if loaded := s2.memo.Stats().Loaded; loaded == 0 {
		t.Fatal("fresh server loaded no snapshot entries")
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(c2.BaseURL+"/v1/workload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(MemoHeader); got != "hit" {
		t.Fatalf("%s = %q on snapshot-restored server, want \"hit\"", MemoHeader, got)
	}
	var warm WorkloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if warm != *cold {
		t.Fatalf("restored response %+v differs from original %+v", warm, *cold)
	}
	if st := s2.memo.KindStats(memo.KindCell); st.Hits == 0 {
		t.Fatalf("restored cell served without a recorded hit: %+v", st)
	}
}

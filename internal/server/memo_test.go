package server

// Tests for the unified content-addressed memo store on the serving
// tier: cell sharing across requests (a one-cell request and a whole
// campaign hit the same canonical digests), warm-stream byte identity,
// /metrics exposure, and the disk-backed snapshot round trip.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"infat/internal/exp"
	"infat/internal/memo"
)

// treeaddPerfCells is a /v1/batch body asking for treeadd's perf cells,
// the first five of its plan: its perf grid.
const treeaddPerfCells = `{"workloads":["treeadd"],"cells":[0,1,2,3,4]}`

// treeaddBaselineCell is a one-cell /v1/batch body: treeadd's baseline
// perf cell.
const treeaddBaselineCell = `{"workloads":["treeadd"],"cells":[0]}`

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

// TestMemoCrossEndpointWorkloadToBatch: a workload cell computed by a
// one-cell /v1/batch request is warm for a later stream of the whole
// perf grid: the stream's MemoHeader counts it, and it is served as a
// memo hit.
func TestMemoCrossEndpointWorkloadToBatch(t *testing.T) {
	s, c, done := newTestServer(t, Config{})
	defer done()

	postNDJSON(t, c.BaseURL+BatchPath, treeaddBaselineCell)
	hitsBefore := s.memo.Stats().Hits

	hdr, lines, trailer := postNDJSON(t, c.BaseURL+BatchPath, treeaddPerfCells)
	if warm := hdr.Get(MemoHeader); warm != "1" {
		t.Fatalf("%s = %q, want 1 warm cell", MemoHeader, warm)
	}
	if trailer.Failed != 0 || trailer.Completed != len(lines) {
		t.Fatalf("trailer = %+v over %d lines", trailer, len(lines))
	}
	if hits := s.memo.Stats().Hits; hits != hitsBefore+1 {
		t.Fatalf("grid stream recorded %d memo hits, want 1", hits-hitsBefore)
	}
}

// TestMemoCrossEndpointBatchToWorkload: after a perf-grid stream, a
// one-cell request for one of its cells is a memo hit whose line is
// byte-identical to a cold computation on an independent server.
func TestMemoCrossEndpointBatchToWorkload(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	_, coldC, coldDone := newTestServer(t, Config{})
	defer coldDone()

	postNDJSON(t, c.BaseURL+BatchPath, treeaddPerfCells)

	hdr, warm, _ := postNDJSON(t, c.BaseURL+BatchPath, treeaddBaselineCell)
	if got := hdr.Get(MemoHeader); got != "1" {
		t.Fatalf("%s = %q after grid stream, want 1", MemoHeader, got)
	}
	_, cold, _ := postNDJSON(t, coldC.BaseURL+BatchPath, treeaddBaselineCell)
	if len(warm) != 1 || len(cold) != 1 || !bytes.Equal(warm[0], cold[0]) {
		t.Fatalf("memoized cell line %s differs from cold %s", warm, cold)
	}
}

// TestMemoBatchMemoryCellsNeverAnswerWorkload: a report stream's memory
// cells run untimed at scale*MemScale, the coordinates of the perf cells
// a scale-4 request names. They are keyed in their own footprint domain,
// so those perf cells must still miss and stream the timed lines a cold
// server computes.
func TestMemoBatchMemoryCellsNeverAnswerWorkload(t *testing.T) {
	_, c, done := newTestServer(t, Config{})
	defer done()
	_, coldC, coldDone := newTestServer(t, Config{})
	defer coldDone()

	_, lines, trailer := postNDJSON(t, c.BaseURL+BatchPath, `{"workloads":["treeadd"]}`)
	if trailer.Failed != 0 || trailer.Completed != len(lines) {
		t.Fatalf("trailer = %+v over %d lines", trailer, len(lines))
	}
	// treeadd's baseline, subheap and wrapped perf cells at the memory
	// cells' scale, 1×exp.MemScale.
	body := fmt.Sprintf(`{"workloads":["treeadd"],"scale":%d,"cells":[0,1,2]}`, exp.MemScale)
	hdr, got, _ := postNDJSON(t, c.BaseURL+BatchPath, body)
	if warm := hdr.Get(MemoHeader); warm != "0" {
		t.Fatalf("%s = %q: a memory cell answered a perf cell", MemoHeader, warm)
	}
	_, want, _ := postNDJSON(t, coldC.BaseURL+BatchPath, body)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("%d and %d cell lines, want 3", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("perf cell after a report stream %s, on a cold server %s", got[i], want[i])
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

	for _, reqBody := range []string{body, `{"plan":"chaos"}`} {
		coldHdr, cold, coldTrailer := postNDJSON(t, c.BaseURL+BatchPath, reqBody)
		if got, _ := strconv.Atoi(coldHdr.Get(MemoHeader)); got != 0 {
			t.Fatalf("%s: cold stream claims %d warm cells", reqBody, got)
		}
		warmHdr, warm, warmTrailer := postNDJSON(t, c.BaseURL+BatchPath, reqBody)
		if got, _ := strconv.Atoi(warmHdr.Get(MemoHeader)); got != len(cold) {
			t.Fatalf("%s: warm stream claims %d warm cells, want %d", reqBody, got, len(cold))
		}
		if coldTrailer != warmTrailer {
			t.Fatalf("%s: trailers differ: %+v vs %+v", reqBody, coldTrailer, warmTrailer)
		}
		if len(cold) != len(warm) {
			t.Fatalf("%s: %d cold lines vs %d warm lines", reqBody, len(cold), len(warm))
		}
		for i := range cold {
			if !bytes.Equal(cold[i], warm[i]) {
				t.Fatalf("%s: cell line %d differs:\ncold: %s\nwarm: %s", reqBody, i, cold[i], warm[i])
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

	postNDJSON(t, c.BaseURL+BatchPath, treeaddPerfCells)
	postNDJSON(t, c.BaseURL+BatchPath, treeaddPerfCells)
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

	s1, c1, done1 := newTestServer(t, Config{MemoDir: dir})
	_, cold, _ := postNDJSON(t, c1.BaseURL+BatchPath, treeaddBaselineCell)
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
	hdr, warm, _ := postNDJSON(t, c2.BaseURL+BatchPath, treeaddBaselineCell)
	if got := hdr.Get(MemoHeader); got != "1" {
		t.Fatalf("%s = %q on snapshot-restored server, want 1", MemoHeader, got)
	}
	if len(warm) != 1 || len(cold) != 1 || !bytes.Equal(warm[0], cold[0]) {
		t.Fatalf("restored cell line %s differs from original %s", warm, cold)
	}
	if st := s2.memo.KindStats(memo.KindCell); st.Hits == 0 {
		t.Fatalf("restored cell served without a recorded hit: %+v", st)
	}
}

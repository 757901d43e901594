package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"infat/internal/exp"
	"infat/internal/workloads"
)

// serialReport is the reference the golden digest is taken from: the
// serial report at scale 1 and memory scale exp.MemScale.
func serialReport(t *testing.T, ws []workloads.Workload) string {
	t.Helper()
	res, err := exp.RunSet(ws, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := exp.RunMemSet(ws, exp.MemScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return exp.Report(res, mem)
}

func TestGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the full serial report")
	}
	if got, want := reportDigest(serialReport(t, workloads.All)), strings.TrimSpace(goldenFile); got != want {
		t.Fatalf("serial report sha256 %s, testdata/report.sha256 has %s", got, want)
	}
}

func TestSeedDeterminesOrder(t *testing.T) {
	a, b, other := cellOrder(1, 144), cellOrder(1, 144), cellOrder(2, 144)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two cell orders")
	}
	if slices.Equal(a, other) {
		t.Fatal("seeds 1 and 2 gave the same cell order")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("cell order is not a permutation: %v", a)
		}
	}

	stream := func(seed uint64) []runReq {
		var out []runReq
		for k := uint64(0); k < 200; k++ {
			out = append(out, requestAt(seed, k, 290, 3))
		}
		return out
	}
	if !slices.Equal(stream(1), stream(1)) {
		t.Fatal("the same seed gave two request streams")
	}
	if slices.Equal(stream(1), stream(2)) {
		t.Fatal("seeds 1 and 2 gave the same request stream")
	}
	kernels := 0
	for _, r := range stream(1) {
		if r.kernel {
			kernels++
		}
	}
	if kernels < 20 || kernels > 60 {
		t.Fatalf("%d kernels in 200 requests, want about 40", kernels)
	}
	if !slices.Equal(hotSet(1, 290, 3), hotSet(1, 290, 3)) || slices.Equal(hotSet(1, 290, 3), hotSet(2, 290, 3)) {
		t.Fatal("hot set is not a function of the seed")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{{1, "max"}, {99, "max"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {50000, "p99"}} {
		p, label := tailPercentile(tc.n)
		if label != tc.label {
			t.Errorf("n=%d: tail %s, want %s", tc.n, label, tc.label)
		}
		// The rule: at least ten samples lie beyond the reported percentile.
		if beyond := float64(tc.n) * (100 - p) / 100; p < 100 && beyond < 10 {
			t.Errorf("n=%d: only %.1f samples beyond %s", tc.n, beyond, label)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 down to 1
	}
	got := summarize(xs)
	if got.N != 1000 || got.P50 != 500.5 || got.Tail != 990 || got.TailLabel != "p99" {
		t.Fatalf("summarize(1..1000) = %+v", got)
	}
	if got := summarize([]float64{3, 1, 2}); got.N != 3 || got.P50 != 2 || got.Tail != 3 || got.TailLabel != "max" {
		t.Fatalf("summarize(3 samples) = %+v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

//go:noinline
func spin(until time.Time) uint64 {
	var x uint64 = 1
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileDecoder(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	leaves, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The test binary names package main by its import path.
	if leaves["infat/bench.spin"] == 0 {
		t.Fatalf("no leaf samples in spin: %v", leaves)
	}
	shares, n := selfPct(leaves)
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if n == 0 || math.Abs(total-100) > 1e-9 || len(shares) != len(selfBuckets) {
		t.Fatalf("%d samples, shares sum to %v over %d buckets", n, total, len(shares))
	}
	if _, err := leafSamples(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"infat/internal/cache.(*Cache).Access":         "cache",
		"infat/internal/mem.(*Memory).LoadN":           "mem",
		"infat/internal/memo.(*Store).GetKind":         "memo",
		"net/http.(*conn).serve":                       "net_http",
		"net/http/internal.(*chunkedReader).Read":      "net_http",
		"encoding/json.Marshal":                        "encoding_json",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).Get":             "runtime",
		"aeshashbody":                                  "runtime",
		unknownFunc:                                    "other",
		"infat/bench.spin":                             "other",
		"slices.SortFunc[go.shape.[]int,go.shape.int]": "other",
	} {
		if got := bucketOf(funcPackage(name)); got != want {
			t.Errorf("%s: bucket %s, want %s", name, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		base, change []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same runs", steady, steady, false, 0.05, unchanged},
		{"faster everywhere", steady, scale(steady, 0.8), false, 0.05, improved},
		{"faster but only five pairs", steady[:5], scale(steady[:5], 0.8), false, 0.05, unchanged},
		{"slower beyond the bound", steady, scale(steady, 1.2), false, 0.05, worse},
		{"slower within the bound", steady, scale(steady, 1.03), false, 0.05, unchanged},
		{"throughput down beyond the bound", steady, scale(steady, 0.8), true, 0.05, worse},
		{"throughput up", steady, scale(steady, 1.2), true, 0.05, improved},
		{"parent too noisy", []float64{50, 150, 80, 120, 100}, []float64{110, 90, 100, 130, 70}, false, 0.05, unresolved},
		{"noisy parent, change better than all", []float64{150, 160, 170, 155, 165}, []float64{100, 101, 99, 100, 102}, false, 0.01, unchanged},
		{"win rate below nine tenths", steady, append(scale(steady[:8], 0.8), 200, 200), false, 0.5, unchanged},
	} {
		if got := judge(tc.base, tc.change, tc.higherBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric lists in step with the
// benchmark definition at the repository root.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program %v", names, want)
	}
}

// smokeConfig runs a workload for about a second over a two-workload
// report plan whose golden digest is computed here.
func smokeConfig(t *testing.T, traced bool) *config {
	var ws []workloads.Workload
	for _, name := range []string{"treeadd", "ks"} {
		w, _ := workloads.ByName(name)
		ws = append(ws, w)
	}
	c := &config{seed: 7, seconds: time.Second, golden: reportDigest(serialReport(t, ws)), ws: ws, nproc: 2}
	if traced {
		c.trace = newTracer()
	}
	return c
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second")
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			c := smokeConfig(t, traced)
			rec, err := measure(w, c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, s := range specs {
				v, ok := rec.Metrics[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Fatalf("%s: metric %s missing or without its unit", w.name, s.Name)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, s.Name, v.Value)
				}
			}
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	for _, w := range []workload{allWorkloads[0], allWorkloads[3]} {
		c := smokeConfig(t, false)
		c.golden = strings.Repeat("0", 64)
		rec, err := measure(w, c)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Correct || rec.Failed == 0 {
			t.Fatalf("%s passed against a corrupted golden digest", w.name)
		}
	}
}

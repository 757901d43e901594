package infat

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§5), plus the design-choice ablations. Each
// benchmark executes the experiment that regenerates its artifact and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. `go run ./cmd/ifp-bench` prints
// the full tables; EXPERIMENTS.md records paper-versus-measured values.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"infat/internal/baseline"
	"infat/internal/exp"
	"infat/internal/hwcost"
	"infat/internal/juliet"
	"infat/internal/rt"
	"infat/internal/server"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// benchSubset keeps per-iteration cost low while covering the evaluation's
// extremes: allocation-dominated (treeadd), cache-thrashing lists (health,
// ft), compute-bound (power), opaque allocation (coremark), and legacy-
// heavy (anagram).
var benchSubset = []string{"treeadd", "health", "ft", "power", "coremark", "anagram"}

// BenchmarkJulietSuite regenerates the §5.1 functional evaluation: the
// detection rate is asserted, the case count reported.
func BenchmarkJulietSuite(b *testing.B) {
	cases := juliet.Generate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped} {
			s := juliet.Run(cases, mode, 1)
			if s.Detected != s.BadCases || s.FalsePositives != 0 {
				b.Fatalf("%v: %s", mode, s.Report())
			}
		}
	}
	b.ReportMetric(float64(2*len(cases)), "cases/op")
}

// BenchmarkExperiments measures the full §5.2 grid end to end — all 18
// workloads × 5 configurations plus the memory experiment — serial versus
// fanned out over GOMAXPROCS workers. On a multi-core machine the
// parallel variant's wall clock is the serial time divided by close to
// the core count (every cell is an independent runtime); on one core the
// two are equal. Compare with:
//
//	go test -bench 'Experiments' -benchtime 1x
func BenchmarkExperiments(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		parallel int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Experiments(1, cfg.parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentsGrid measures one serial pass over the §5.2
// (workload × configuration) grid — the per-cell simulation cost that
// dominates campaign wall clock. Serial on purpose: its ns/op tracks the
// simulator's hot-path efficiency independent of host core count, where
// the memory fast paths and the zero-alloc interpreter show up directly.
// EXPERIMENTS.md keeps its history; bench/ times the whole report pass.
func BenchmarkExperimentsGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunSet(workloads.All, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// runWorkload runs all five configurations of one workload.
func runWorkload(b *testing.B, w workloads.Workload) exp.Result {
	b.Helper()
	res, err := exp.RunSet([]workloads.Workload{w}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return res[0]
}

// BenchmarkTable4 regenerates the dynamic-event-count rows: the metric is
// each workload's dynamic instruction ratio (instrumented / baseline).
func BenchmarkTable4(b *testing.B) {
	for _, name := range benchSubset {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			var res exp.Result
			for i := 0; i < b.N; i++ {
				res = runWorkload(b, w)
			}
			b.ReportMetric(stats.Ratio(res.Subheap.Counters.Instrs, res.Baseline.Counters.Instrs), "subheap-instr-x")
			b.ReportMetric(stats.Ratio(res.Wrapped.Counters.Instrs, res.Baseline.Counters.Instrs), "wrapped-instr-x")
			b.ReportMetric(100*stats.Ratio(res.Subheap.Counters.PromoteValid, res.Subheap.Counters.Promote), "valid-promote-%")
		})
	}
}

// BenchmarkFig10 regenerates the runtime-overhead figure (cycles vs
// baseline) for the subset.
func BenchmarkFig10(b *testing.B) {
	for _, name := range benchSubset {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			var res exp.Result
			for i := 0; i < b.N; i++ {
				res = runWorkload(b, w)
			}
			base := res.Baseline.Counters.Cycles
			b.ReportMetric(stats.Overhead(stats.Ratio(res.Subheap.Counters.Cycles, base)), "subheap-ovh-%")
			b.ReportMetric(stats.Overhead(stats.Ratio(res.Wrapped.Counters.Cycles, base)), "wrapped-ovh-%")
			b.ReportMetric(stats.Overhead(stats.Ratio(res.SubheapNP.Counters.Cycles, base)), "subheap-nopromote-%")
		})
	}
}

// BenchmarkFig11 regenerates the IFP instruction-mix figure.
func BenchmarkFig11(b *testing.B) {
	for _, name := range benchSubset {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			var res exp.Result
			for i := 0; i < b.N; i++ {
				res = runWorkload(b, w)
			}
			base := float64(res.Baseline.Counters.Instrs)
			c := res.Subheap.Counters
			b.ReportMetric(100*float64(c.Promote)/base, "promote-%")
			b.ReportMetric(100*float64(c.IfpArith())/base, "arith-%")
			b.ReportMetric(100*float64(c.IfpBoundsMem())/base, "bounds-ldst-%")
		})
	}
}

// BenchmarkFig12 regenerates the memory-overhead figure for a
// representative pair: the allocator win (treeadd) and the per-object-
// metadata cost (health under the wrapped allocator).
func BenchmarkFig12(b *testing.B) {
	for _, name := range []string{"treeadd", "health", "em3d"} {
		w, _ := workloads.ByName(name)
		b.Run(name, func(b *testing.B) {
			var m exp.MemResult
			for i := 0; i < b.N; i++ {
				ms, err := exp.RunMemSet([]workloads.Workload{w}, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				m = ms[0]
			}
			b.ReportMetric(stats.Overhead(stats.Ratio(m.Subheap, m.Baseline)), "subheap-mem-%")
			b.ReportMetric(stats.Overhead(stats.Ratio(m.Wrapped, m.Baseline)), "wrapped-mem-%")
		})
	}
}

// BenchmarkFig13 regenerates the hardware-area decomposition; the metric
// is the modelled LUT growth.
func BenchmarkFig13(b *testing.B) {
	var van, mod int
	for i := 0; i < b.N; i++ {
		van, mod = hwcost.Totals(hwcost.Model(hwcost.Default))
	}
	b.ReportMetric(float64(mod-van), "LUT-growth")
	b.ReportMetric(100*float64(mod-van)/float64(van), "LUT-growth-%")
}

// BenchmarkRelatedWork regenerates the §2/Table-1 mechanism comparison.
func BenchmarkRelatedWork(b *testing.B) {
	var ifpC, sbC, noneC uint64
	for i := 0; i < b.N; i++ {
		for _, s := range []baseline.Scheme{baseline.None, baseline.SoftBound, baseline.MPX, baseline.ASan, baseline.InFat} {
			res, err := baseline.Run(s, 800)
			if err != nil {
				b.Fatal(err)
			}
			switch s {
			case baseline.None:
				noneC = res.Cycles
			case baseline.SoftBound:
				sbC = res.Cycles
			case baseline.InFat:
				ifpC = res.Cycles
			}
		}
	}
	b.ReportMetric(stats.Overhead(stats.Ratio(ifpC, noneC)), "infat-ovh-%")
	b.ReportMetric(stats.Overhead(stats.Ratio(sbC, noneC)), "softbound-ovh-%")
}

// BenchmarkSchemes measures the three metadata schemes' promote costs in
// isolation (Table 2's efficiency dimension).
func BenchmarkSchemes(b *testing.B) {
	type prep func(*System) (uint64, error)
	cases := []struct {
		name string
		prep prep
	}{
		{"local-offset", func(s *System) (uint64, error) {
			o, err := s.Malloc(Long, 8) // wrapped-local path
			return o.P, err
		}},
		{"global-table", func(s *System) (uint64, error) {
			o, err := s.Malloc(Long, 4096)
			return o.P, err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sys := NewSystem(Wrapped)
			p, err := c.prep(sys)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Promote(p)
			}
		})
	}
	b.Run("subheap", func(b *testing.B) {
		sys := NewSystem(Subheap)
		o, err := sys.Malloc(Long, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Promote(o.P)
		}
	})
}

// BenchmarkInstructions measures the single-cycle IFP instruction
// implementations (Table 3).
func BenchmarkInstructions(b *testing.B) {
	sys := NewSystem(Subheap)
	o, err := sys.Malloc(Long, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ifpadd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.M.IfpAdd(o.P, 8, o.B)
		}
	})
	b.Run("ifpidx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.M.IfpIdx(o.P, 1)
		}
	})
	b.Run("ifpchk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.M.IfpChk(o.P, 8, o.B)
		}
	})
	b.Run("ifpbnd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.M.IfpBnd(o.P, 64)
		}
	})
	b.Run("ifpmac", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.M.IfpMac(o.Base(), 64, 0)
		}
	})
}

// BenchmarkASICSweep regenerates the §5.2.4 extrapolation discussion.
func BenchmarkASICSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunReport(exp.ASICPlan(1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the DESIGN.md design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunReport(exp.AblationPlan(1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemReuse measures the pooled runtime lifecycle on the
// minic.ExecuteBudget path (the VM entry every RunC and ifp-serve
// request goes through): "fresh" constructs a new simulator per run (the
// pre-pool lifecycle, rt.SetReuseSystems(false)), "pooled" resets and reuses
// one. The allocs/op gap is the construction churn the pool removes; the
// outputs are asserted identical, which is the determinism contract in
// miniature. Since the program interner landed, both variants share one
// compilation (ExecuteBudget interns by source hash), so the remaining
// allocs/op is pure runtime lifecycle plus per-run VM state — the number
// the CI alloc budget (TestAllocBudgetExecuteBudget) enforces.
func BenchmarkSystemReuse(b *testing.B) {
	const src = `int main() {
	long i;
	long acc = 0;
	for (i = 0; i < 50; i = i + 1) { acc = acc + i; }
	print(acc);
	return 0;
}`
	was := rt.ReuseSystems()
	defer rt.SetReuseSystems(was)

	run := func(b *testing.B) {
		out, exit, err := RunCBudget(src, Subheap, 0)
		if err != nil || exit != 0 || len(out) != 1 || out[0] != 1225 {
			b.Fatalf("run = (%v, %d, %v), want ([1225], 0, nil)", out, exit, err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		rt.SetReuseSystems(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		rt.SetReuseSystems(true)
		run(b) // warm the pool so every measured op is a hit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
}

// serveSeq makes every cold-path source unique across sub-benchmark
// re-runs (the harness re-enters the loop with growing b.N).
var serveSeq atomic.Uint64

// BenchmarkServeRunC measures the service layer's request latency over
// the ifp-serve HTTP stack: cold (every request a distinct program, so
// each one simulates) versus warm (identical requests served from the
// result cache). The gap is the simulation cost the LRU removes from
// repeated submissions — the service-layer perf trajectory baseline.
func BenchmarkServeRunC(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	client := server.NewClient(ts.URL)
	ctx := context.Background()
	prog := func(n uint64) string {
		return fmt.Sprintf(`int main() {
	long i;
	long acc = %d;
	for (i = 0; i < 200; i = i + 1) { acc = acc + i; }
	print(acc);
	return 0;
}`, n)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, cached, err := client.Run(ctx, server.RunRequest{Source: prog(serveSeq.Add(1))})
			if err != nil {
				b.Fatal(err)
			}
			if cached || resp.Trap != nil {
				b.Fatalf("cold request: cached=%v trap=%+v", cached, resp.Trap)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		src := prog(serveSeq.Add(1))
		if _, _, err := client.Run(ctx, server.RunRequest{Source: src}); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, cached, err := client.Run(ctx, server.RunRequest{Source: src})
			if err != nil {
				b.Fatal(err)
			}
			if !cached {
				b.Fatal("warm request missed the cache")
			}
		}
	})
}

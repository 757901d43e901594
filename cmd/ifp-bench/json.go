package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infat/internal/exp"
	"infat/internal/juliet"
	"infat/internal/machine"
	"infat/internal/mem"
	"infat/internal/memo"
	"infat/internal/minic"
	"infat/internal/netchaos"
	"infat/internal/pool"
	"infat/internal/rt"
	"infat/internal/server"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// benchSchema versions the -json output so downstream tooling can detect
// format changes across BENCH_*.json files. v2 added grid_bench,
// mem_bench, and intern; v3 added batch_bench; v4 added temporal_bench;
// v5 added netchaos_bench; v6 added dispatch_bench; v7 added memo_bench;
// v8 adds batch_bench.state and times batch_bench cold again, one fresh
// server per op (v7's batch_bench timed memo hits after its first op).
// The deterministic workload cycles and overheads are unchanged from v1.
const benchSchema = "ifp-bench/v8"

// benchJSON is the machine-readable benchmark summary -json emits: the
// §5.2 per-workload cycle counts and geomean overheads, cold-vs-warm
// serve latency, the fresh-vs-pooled runtime acquisition benchmark, the
// serial grid and memory fast-path timings, and the pool/interner
// counters accumulated while producing all of the above. Workload cycles
// and overheads are modeled (deterministic across hosts and runs); every
// *_ns_per_op and *_allocs_per_op field is host timing.
type benchJSON struct {
	Schema   string `json:"schema"`
	Scale    int    `json:"scale"`
	Parallel int    `json:"parallel"`
	Reuse    bool   `json:"reuse"`

	Workloads          []workloadJSON     `json:"workloads"`
	GeomeanOverheadPct map[string]float64 `json:"geomean_overhead_pct"`

	Serve         serveJSON    `json:"serve"`
	ReuseBench    reuseJSON    `json:"reuse_bench"`
	GridBench     gridJSON     `json:"grid_bench"`
	MemBench      memJSON      `json:"mem_bench"`
	BatchBench    batchJSON    `json:"batch_bench"`
	TemporalBench temporalJSON `json:"temporal_bench"`
	NetchaosBench netchaosJSON `json:"netchaos_bench"`
	DispatchBench dispatchJSON `json:"dispatch_bench"`
	MemoBench     memoJSON     `json:"memo_bench"`

	Pool   map[string]uint64 `json:"pool"`
	Intern map[string]int    `json:"intern"`
}

// gridJSON times one serial pass over the full §5.2 grid (every workload
// × every configuration, one worker) — the experiments-grid number the
// perf trajectory tracks across BENCH_*.json snapshots, independent of
// host core count.
type gridJSON struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// batchJSON times one whole streamed campaign through /v1/batch on a
// loopback ifp-serve: request in, NDJSON cells fanned over the worker
// pool, report reassembled byte-identical — the serving-tier number the
// perf trajectory tracks. One op is the full campaign over a fixed
// workload subset (perf + memory cells) against a fresh server, so every
// cell is computed; state records that ("cold"). ns_per_cell divides by
// the campaign's cell count.
type batchJSON struct {
	State       string `json:"state"`
	Workloads   int    `json:"workloads"`
	Cells       int    `json:"cells"`
	NsPerOp     int64  `json:"ns_per_op"`
	NsPerCell   int64  `json:"ns_per_cell"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// memJSON times the guest-memory access paths on a warm working set: one
// op is a store+load pair. Aligned accesses take the single-page fast
// path; straddle ops cross a page boundary and take the bounce-buffer
// slow path.
type memJSON struct {
	AlignedNsPerOp  int64 `json:"aligned_ns_per_op"`
	StraddleNsPerOp int64 `json:"straddle_ns_per_op"`
	AllocsPerOp     int64 `json:"allocs_per_op"`
}

// temporalJSON summarizes the generation-tagging mode (rt.IFPTemporal):
// the modeled per-comparison cycle cost, the geomean cycle overhead of
// ifp-temporal vs baseline over the full workload grid, the grid's total
// generation-check volume, and the CWE-415/416 detection counts under a
// spatial mode vs the temporal one. All fields are modeled/deterministic
// (no host timing).
type temporalJSON struct {
	// GenCheckCycles is the modeled cost charged per generation
	// comparison (machine.DefaultCost.GenCheckCycles).
	GenCheckCycles     uint64  `json:"gen_check_cycles"`
	GeomeanOverheadPct float64 `json:"geomean_overhead_pct"`
	GenChecks          uint64  `json:"gen_checks"`
	GenCheckFails      uint64  `json:"gen_check_fails"`
	// CWE-415/416 suite: bad-variant count and how many each mode
	// detects (spatial misses type-safe reuse by design).
	CWE415416BadCases         int `json:"cwe415416_bad_cases"`
	CWE415416DetectedSpatial  int `json:"cwe415416_detected_spatial"`
	CWE415416DetectedTemporal int `json:"cwe415416_detected_temporal"`
}

// netchaosJSON summarizes a reduced network-fault campaign: in-process
// backends behind deterministic fault-injecting proxies, the shard's
// self-healing machinery (breakers, hedging, reassignment, stream
// validation) recovering every cell. The counters are the robustness
// trajectory the BENCH_*.json series tracks — how much rescue work the
// faults forced — and the gates (zero lost, all reports byte-identical)
// fail the whole -json run if the tier regresses. wall_ms is host
// timing; everything else is deterministic under the campaign seed.
type netchaosJSON struct {
	Faults        []string `json:"faults"`
	Seeds         int      `json:"seeds"`
	Runs          int      `json:"runs"`
	Failed        int      `json:"failed"`
	Cells         int      `json:"cells"`
	Injected      uint64   `json:"injected"`
	Recovered     uint64   `json:"recovered"`
	FailedOver    uint64   `json:"failed_over"`
	Hedged        uint64   `json:"hedged"`
	Shed          uint64   `json:"shed"`
	CorruptLines  uint64   `json:"corrupt_lines"`
	DupSuppressed uint64   `json:"dup_suppressed"`
	Lost          int      `json:"lost"`
	AllIdentical  bool     `json:"all_identical"`
	WallMs        int64    `json:"wall_ms"`
}

// dispatchJSON compares the minic reference stack walker against the
// register bytecode dispatch loop on a fixed program set: host ns/op per
// program through the full ExecuteBudget path (pooled runtime, interned
// program), the superinstruction retirements of one register run of each
// program, the per-program re-lowering cost, and the geomean
// reference/register speedup. Counter equality between the two loops is
// the dispatch-equivalence suite's job; this section tracks only speed.
type dispatchJSON struct {
	Programs       []dispatchProgJSON `json:"programs"`
	SuperHits      map[string]uint64  `json:"super_hits"`
	LowerNsPerOp   int64              `json:"lower_ns_per_op"`
	GeomeanSpeedup float64            `json:"geomean_speedup"`
}

// dispatchProgJSON is one program's timing under both execution loops.
type dispatchProgJSON struct {
	Name             string `json:"name"`
	ReferenceNsPerOp int64  `json:"reference_ns_per_op"`
	RegisterNsPerOp  int64  `json:"register_ns_per_op"`
}

// memoJSON compares one cold and one warm pass over a full report-grid
// campaign (perf + memory cells, serial) through a content-addressed
// memo store: the warm pass must reassemble the byte-identical report at
// least 5x faster with every cell a hit, or the -json run fails — those
// are the memoization acceptance gates, checked on every snapshot.
// digest_ns_per_op times one canonical cell-digest composition (the cost
// a miss adds over a plain run). Wall times are host timing; the reports
// and hit counts are deterministic.
type memoJSON struct {
	Workloads     int     `json:"workloads"`
	Cells         int     `json:"cells"`
	ColdNsPerOp   int64   `json:"cold_ns_per_op"`
	WarmNsPerOp   int64   `json:"warm_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	WarmHitRate   float64 `json:"warm_hit_rate"`
	DigestNsPerOp int64   `json:"digest_ns_per_op"`
	ByteIdentical bool    `json:"byte_identical"`
}

// workloadJSON is one workload's cycle counts per configuration plus the
// instrumented configurations' overheads against baseline.
type workloadJSON struct {
	Name        string             `json:"name"`
	Suite       string             `json:"suite"`
	Cycles      map[string]uint64  `json:"cycles"`
	OverheadPct map[string]float64 `json:"overhead_pct"`
}

// serveJSON measures one /v1/run request cold (unique source, full
// compile+simulate) and warm (repeated source, LRU hit) through a real
// HTTP round trip.
type serveJSON struct {
	ColdNsPerOp     int64 `json:"cold_ns_per_op"`
	WarmNsPerOp     int64 `json:"warm_ns_per_op"`
	ColdAllocsPerOp int64 `json:"cold_allocs_per_op"`
	WarmAllocsPerOp int64 `json:"warm_allocs_per_op"`
}

// reuseJSON measures the minic.ExecuteBudget path with pooling on
// (reused runtimes) and off (a fresh runtime per run).
type reuseJSON struct {
	FreshNsPerOp      int64 `json:"fresh_ns_per_op"`
	PooledNsPerOp     int64 `json:"pooled_ns_per_op"`
	FreshAllocsPerOp  int64 `json:"fresh_allocs_per_op"`
	PooledAllocsPerOp int64 `json:"pooled_allocs_per_op"`
}

// benchModes maps the JSON keys to the five grid configurations.
var benchModes = []struct {
	key string
	get func(*exp.Result) uint64
}{
	{"baseline", func(r *exp.Result) uint64 { return r.Baseline.Counters.Cycles }},
	{"subheap", func(r *exp.Result) uint64 { return r.Subheap.Counters.Cycles }},
	{"wrapped", func(r *exp.Result) uint64 { return r.Wrapped.Counters.Cycles }},
	{"subheap_nopromote", func(r *exp.Result) uint64 { return r.SubheapNP.Counters.Cycles }},
	{"wrapped_nopromote", func(r *exp.Result) uint64 { return r.WrappedNP.Counters.Cycles }},
}

// writeBenchJSON runs the evaluation grid (reusing results when the
// caller already produced them), the serve and reuse micro-benchmarks,
// and writes the summary to path.
func writeBenchJSON(path string, results []exp.Result, scale, parallel int) error {
	if results == nil {
		r, err := exp.RunSet(workloads.All, scale, parallel)
		if err != nil {
			return err
		}
		results = r
	}

	out := benchJSON{
		Schema:             benchSchema,
		Scale:              scale,
		Parallel:           parallel,
		Reuse:              rt.ReuseSystems(),
		GeomeanOverheadPct: map[string]float64{},
	}

	ratios := map[string][]float64{}
	for i := range results {
		r := &results[i]
		w := workloadJSON{
			Name:        r.Name,
			Suite:       r.Suite,
			Cycles:      map[string]uint64{},
			OverheadPct: map[string]float64{},
		}
		for _, m := range benchModes {
			w.Cycles[m.key] = m.get(r)
			if m.key != "baseline" && r.Baseline.Counters.Cycles > 0 {
				ratio := stats.Ratio(m.get(r), r.Baseline.Counters.Cycles)
				w.OverheadPct[m.key] = stats.Overhead(ratio)
				ratios[m.key] = append(ratios[m.key], ratio)
			}
		}
		out.Workloads = append(out.Workloads, w)
	}
	for key, rs := range ratios {
		out.GeomeanOverheadPct[key] = stats.Overhead(stats.Geomean(rs))
	}

	serve, err := benchServe()
	if err != nil {
		return err
	}
	out.Serve = serve
	out.ReuseBench = benchReuse()
	out.GridBench = benchGrid(scale)
	out.MemBench = benchMem()
	batch, err := benchBatch()
	if err != nil {
		return err
	}
	out.BatchBench = batch
	temporal, err := benchTemporal(scale, parallel)
	if err != nil {
		return err
	}
	out.TemporalBench = temporal
	nc, err := benchNetchaos()
	if err != nil {
		return err
	}
	out.NetchaosBench = nc
	dispatch, err := benchDispatch()
	if err != nil {
		return err
	}
	out.DispatchBench = dispatch
	memoBench, err := benchMemo(scale)
	if err != nil {
		return err
	}
	out.MemoBench = memoBench
	ps := rt.DefaultPool.Stats()
	out.Pool = map[string]uint64{
		"hits":     ps.Hits,
		"misses":   ps.Misses,
		"releases": ps.Releases,
		"discards": ps.Discards,
		"idle":     ps.Idle,
	}
	out.Intern = map[string]int{"entries": minic.DefaultInterner.Len()}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchTemporal runs the full grid with the ifp-temporal configuration
// (a WithTemporal plan, fanned over parallel workers) and the
// CWE-415/416 suites under both a spatial mode and the temporal one, and
// folds the results into the temporal_bench section. Every number is
// modeled and deterministic across hosts.
func benchTemporal(scale, parallel int) (temporalJSON, error) {
	p := exp.NewPlan(workloads.All, scale).WithTemporal(true)
	a := p.NewAssembly()
	var mu sync.Mutex
	if err := pool.Map(parallel, p.NumCells(), func(i int) error {
		c, err := p.RunCell(i)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return a.Add(i, c)
	}); err != nil {
		return temporalJSON{}, err
	}
	results, _, err := a.Results()
	if err != nil {
		return temporalJSON{}, err
	}

	out := temporalJSON{GenCheckCycles: machine.DefaultCost.GenCheckCycles}
	var ratios []float64
	for i := range results {
		r := &results[i]
		ratios = append(ratios, stats.Ratio(r.Temporal.Counters.Cycles, r.Baseline.Counters.Cycles))
		out.GenChecks += r.Temporal.Counters.GenChecks
		out.GenCheckFails += r.Temporal.Counters.GenCheckFails
	}
	out.GeomeanOverheadPct = stats.Overhead(stats.Geomean(ratios))

	cases := juliet.GenerateCWE415416()
	spatial := juliet.RunParallel(cases, rt.Hybrid, parallel)
	temporal := juliet.RunParallel(cases, rt.IFPTemporal, parallel)
	out.CWE415416BadCases = spatial.BadCases
	out.CWE415416DetectedSpatial = spatial.Detected
	out.CWE415416DetectedTemporal = temporal.Detected
	return out, nil
}

// benchNetchaosFaults is the reduced fault set the -json snapshot runs:
// the three stream-sabotage faults that exercise every recovery path
// (reassignment, validation, dedup) without the multi-second stalls the
// full grid's blackhole and slowloris arms pay. ifp-shard -netchaos
// remains the exhaustive gate.
var benchNetchaosFaults = []netchaos.Fault{
	netchaos.FaultNone, netchaos.FaultTruncate, netchaos.FaultCorrupt, netchaos.FaultDuplicate,
}

// benchNetchaos runs the reduced fault campaign (batch leg, one seed,
// one workload) and folds its totals into the netchaos_bench section.
// Campaign gate failures — a lost cell, a non-identical report — fail
// the benchmark run itself.
func benchNetchaos() (netchaosJSON, error) {
	start := time.Now()
	res, err := netchaos.RunCampaign(netchaos.CampaignConfig{
		Workloads: []string{"treeadd"},
		Seeds:     []uint64{1},
		FaultSet:  benchNetchaosFaults,
		SkipChaos: true,
	})
	if err != nil {
		return netchaosJSON{}, err
	}
	s := res.Summarize()
	out := netchaosJSON{
		Seeds:         1,
		Runs:          s.Runs,
		Failed:        s.Failed,
		Cells:         s.Cells,
		Injected:      s.Injected,
		Recovered:     s.Recovered,
		FailedOver:    s.FailedOver,
		Hedged:        s.Hedged,
		Shed:          s.Shed,
		CorruptLines:  s.CorruptLines,
		DupSuppressed: s.DupSuppressed,
		Lost:          s.Lost,
		AllIdentical:  s.AllIdentical,
		WallMs:        time.Since(start).Milliseconds(),
	}
	for _, f := range benchNetchaosFaults {
		out.Faults = append(out.Faults, string(f))
	}
	return out, nil
}

// benchDispatchPrograms is the fixed program set dispatch_bench times:
// recursion (call-heavy, exercises the register-window reslice after
// LCall), array loops with a constant-index store and a bare pointer
// deref (GepIdxBnd/ConstGepStore/LoadPChk fusion), and a heap
// linked-list walk (GepIdx chains over promoted pointers). Sizes are
// chosen so simulation, not compilation, dominates — compilation is
// interned away after the first run anyway.
var benchDispatchPrograms = []struct{ name, src string }{
	{"fib", `long fib(long n) {
		if (n < 2) { return n; }
		return fib(n - 1) + fib(n - 2);
	}
	int main() { print(fib(18)); return 0; }`},
	{"arrays", `int main() {
		long buf[64]; long i; long r; long acc = 0;
		long *q = &buf[3];
		for (r = 0; r < 50; r = r + 1) {
			buf[0] = r;
			for (i = 0; i < 64; i = i + 1) { buf[i] = i * r; }
			for (i = 0; i < 64; i = i + 1) { acc = acc + buf[i]; }
			acc = acc + *q;
		}
		print(acc);
		return 0;
	}`},
	{"list", `struct Node { long val; struct Node *next; };
	int main() {
		struct Node *head = (struct Node*)0;
		long i;
		for (i = 0; i < 64; i = i + 1) {
			struct Node *n = (struct Node*)malloc(sizeof(struct Node));
			n->val = i; n->next = head; head = n;
		}
		long sum = 0; long r;
		for (r = 0; r < 50; r = r + 1) {
			struct Node *it = head;
			while (it != (struct Node*)0) { sum = sum + it->val; it = it->next; }
		}
		while (head != (struct Node*)0) {
			struct Node *dead = head; head = head->next; free(dead);
		}
		print(sum);
		return 0;
	}`},
}

// benchDispatch times each program through ExecuteBudgetReference (stack
// walker) and ExecuteBudget (register dispatch), collects one register
// run's superinstruction retirements, and times re-lowering the set.
func benchDispatch() (dispatchJSON, error) {
	out := dispatchJSON{SuperHits: map[string]uint64{}}
	var ratios []float64
	for _, p := range benchDispatchPrograms {
		comp, err := minic.DefaultInterner.Get(p.src)
		if err != nil {
			return out, err
		}
		r := rt.Acquire(rt.Subheap)
		vm, err := minic.NewVM(comp, r)
		if err != nil {
			rt.Release(r)
			return out, err
		}
		if _, err := vm.Run(); err != nil {
			rt.Release(r)
			return out, fmt.Errorf("dispatch bench %s: %w", p.name, err)
		}
		for k, v := range vm.SuperHits() {
			out.SuperHits[k] += v
		}
		rt.Release(r)

		var runErr error
		ref := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := minic.ExecuteBudgetReference(p.src, rt.Subheap, 0); err != nil && runErr == nil {
					runErr = err
				}
			}
		})
		reg := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := minic.ExecuteBudget(p.src, rt.Subheap, 0); err != nil && runErr == nil {
					runErr = err
				}
			}
		})
		if runErr != nil {
			return out, runErr
		}
		out.Programs = append(out.Programs, dispatchProgJSON{
			Name:             p.name,
			ReferenceNsPerOp: ref.NsPerOp(),
			RegisterNsPerOp:  reg.NsPerOp(),
		})
		ratios = append(ratios, stats.Ratio(uint64(ref.NsPerOp()), uint64(reg.NsPerOp())))
	}
	out.GeomeanSpeedup = stats.Geomean(ratios)

	var lowerErr error
	lower := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range benchDispatchPrograms {
				comp, err := minic.DefaultInterner.Get(p.src)
				if err == nil {
					_, err = minic.Lower(comp)
				}
				if err != nil && lowerErr == nil {
					lowerErr = err
				}
			}
		}
	})
	if lowerErr != nil {
		return out, lowerErr
	}
	out.LowerNsPerOp = lower.NsPerOp() / int64(len(benchDispatchPrograms))
	return out, nil
}

// benchMemo runs the memo_bench campaign: a cold serial pass over the
// full report plan of a fixed workload subset (populating a fresh memo
// store), then a warm pass over the same plan (every cell replayed from
// the store), both reassembled through the plan's Assembly. The gates
// are the memoization acceptance contract: byte-identical reports, a
// 100% warm hit rate, and at least a 5x warm speedup.
func benchMemo(scale int) (memoJSON, error) {
	var ws []workloads.Workload
	for _, name := range benchBatchWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return memoJSON{}, fmt.Errorf("memo bench: unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	store := memo.NewStore(memo.DefaultEntries)
	plan := exp.NewReportPlan(ws, scale, exp.MemScale).WithMemo(store)

	pass := func() (string, time.Duration, error) {
		a := plan.NewAssembly()
		start := time.Now()
		for i := 0; i < plan.NumCells(); i++ {
			c, err := plan.RunCell(i)
			if err != nil {
				return "", 0, err
			}
			if err := a.Add(i, c); err != nil {
				return "", 0, err
			}
		}
		elapsed := time.Since(start)
		rep, err := a.Report()
		return rep, elapsed, err
	}

	coldRep, coldD, err := pass()
	if err != nil {
		return memoJSON{}, err
	}
	before := store.Stats()
	warmRep, warmD, err := pass()
	if err != nil {
		return memoJSON{}, err
	}
	after := store.Stats()
	if warmD <= 0 {
		warmD = time.Nanosecond
	}

	cells := plan.NumCells()
	hits := after.Hits - before.Hits
	out := memoJSON{
		Workloads:     len(ws),
		Cells:         cells,
		ColdNsPerOp:   coldD.Nanoseconds(),
		WarmNsPerOp:   warmD.Nanoseconds(),
		Speedup:       float64(coldD) / float64(warmD),
		WarmHitRate:   float64(hits) / float64(cells),
		ByteIdentical: coldRep == warmRep,
	}
	dig := testing.Benchmark(func(b *testing.B) {
		var sink memo.Digest
		for i := 0; i < b.N; i++ {
			sink = plan.CellDigest(i % cells)
		}
		_ = sink
	})
	out.DigestNsPerOp = dig.NsPerOp()

	switch {
	case !out.ByteIdentical:
		return out, fmt.Errorf("memo bench: warm report differs from cold report")
	case hits != uint64(cells):
		return out, fmt.Errorf("memo bench: warm pass hit %d of %d cells", hits, cells)
	case out.Speedup < 5:
		return out, fmt.Errorf("memo bench: warm speedup %.1fx below the 5x gate (cold %v, warm %v)",
			out.Speedup, coldD, warmD)
	}
	return out, nil
}

// benchSrc is the program both micro-benchmarks run: small enough that
// runtime construction, not simulation, dominates the fresh path.
const benchSrc = "int main() { long i; long s; s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } print(s); return 0; }"

// benchReuse times the ExecuteBudget path fresh (reuse off) and pooled.
// It restores the process-wide reuse setting before returning.
func benchReuse() reuseJSON {
	was := rt.ReuseSystems()
	defer rt.SetReuseSystems(was)

	measure := func(reuse bool) testing.BenchmarkResult {
		rt.SetReuseSystems(reuse)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := minic.ExecuteBudget(benchSrc, rt.Subheap, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Warm the pool so the pooled measurement hits from the first op.
	rt.SetReuseSystems(true)
	rt.Release(rt.Acquire(rt.Subheap))

	fresh := measure(false)
	pooled := measure(true)
	return reuseJSON{
		FreshNsPerOp:      fresh.NsPerOp(),
		PooledNsPerOp:     pooled.NsPerOp(),
		FreshAllocsPerOp:  fresh.AllocsPerOp(),
		PooledAllocsPerOp: pooled.AllocsPerOp(),
	}
}

// benchGrid times one serial full-grid evaluation per op (the
// BenchmarkExperimentsGrid twin, so the CLI snapshot and `go test -bench`
// measure the same thing).
func benchGrid(scale int) gridJSON {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exp.RunAllN(scale, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	return gridJSON{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp()}
}

// benchMem times the guest-memory fast and slow paths on a warm 16-page
// working set (the BenchmarkMemLoadStore twin).
func benchMem() memJSON {
	m := mem.New()
	const span = 16 * mem.PageSize
	m.Map(0, span)
	aligned := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i) * 8 % span
			_ = m.StoreN(addr, uint64(i), 8)
			v, _ := m.LoadN(addr, 8)
			sink += v
		}
		_ = sink
	})
	straddle := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i)%14*mem.PageSize + mem.PageSize - 3
			_ = m.StoreN(addr, uint64(i), 8)
			v, _ := m.LoadN(addr, 8)
			sink += v
		}
		_ = sink
	})
	return memJSON{
		AlignedNsPerOp:  aligned.NsPerOp(),
		StraddleNsPerOp: straddle.NsPerOp(),
		AllocsPerOp:     aligned.AllocsPerOp(),
	}
}

// benchBatchWorkloads is the fixed subset the batch benchmark streams —
// small enough that one op stays in seconds, representative enough
// (olden + ptrdist + kernels) to track the serving tier's fan-out cost.
var benchBatchWorkloads = []string{"treeadd", "health", "ks"}

// benchBatch boots ifp-serve on a loopback port and times one full cold
// /v1/batch campaign per op: stream every perf and memory cell of the
// subset, reassemble the report. Each op gets a fresh server.New (built
// with the timer stopped), so its memo store starts empty; a memo hit
// fails the section, because it would time a replay, not a campaign.
func benchBatch() (batchJSON, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return batchJSON{}, err
	}
	var backend atomic.Pointer[server.Server]
	backend.Store(server.New(server.Config{}))
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().ServeHTTP(w, r)
	})}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	c := server.NewClient("http://" + ln.Addr().String())
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		return batchJSON{}, err
	}

	req := server.BatchRequest{Workloads: benchBatchWorkloads}
	plan, err := req.BatchPlan()
	if err != nil {
		return batchJSON{}, err
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := server.New(server.Config{})
			backend.Store(fresh)
			b.StartTimer()
			if _, err := c.BatchReport(ctx, req); err != nil && runErr == nil {
				runErr = err
			}
			if hits := fresh.MemoStore().Stats().Hits; hits != 0 && runErr == nil {
				runErr = fmt.Errorf("batch bench: cold campaign recorded %d memo hits", hits)
			}
		}
	})
	if runErr != nil {
		return batchJSON{}, runErr
	}
	cells := plan.NumCells()
	return batchJSON{
		State:       "cold",
		Workloads:   len(benchBatchWorkloads),
		Cells:       cells,
		NsPerOp:     r.NsPerOp(),
		NsPerCell:   r.NsPerOp() / int64(cells),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

// benchServe boots ifp-serve on a loopback port and times one /v1/run
// request cold (unique source each op: full compile+simulate) and warm
// (identical source: result-cache hit).
func benchServe() (serveJSON, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveJSON{}, err
	}
	srv := &http.Server{Handler: server.New(server.Config{})}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := server.NewClient("http://" + ln.Addr().String())
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		return serveJSON{}, err
	}

	var runErr error
	cold := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := fmt.Sprintf("int main() { print(%d); return 0; }", i)
			if _, _, err := c.Run(ctx, server.RunRequest{Source: src, Mode: "subheap"}); err != nil && runErr == nil {
				runErr = err
			}
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Run(ctx, server.RunRequest{Source: benchSrc, Mode: "subheap"}); err != nil && runErr == nil {
				runErr = err
			}
		}
	})
	if runErr != nil {
		return serveJSON{}, runErr
	}
	return serveJSON{
		ColdNsPerOp:     cold.NsPerOp(),
		WarmNsPerOp:     warm.NsPerOp(),
		ColdAllocsPerOp: cold.AllocsPerOp(),
		WarmAllocsPerOp: warm.AllocsPerOp(),
	}, nil
}

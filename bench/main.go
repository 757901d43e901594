// Command bench is the repository benchmark: four closed-loop workloads
// over the simulator, the evaluation harness and the serving tier, each
// run in one process, each output checked against a reference.
//
//	go run . -workload run_cold -seed 1 -seconds 20            # end-to-end metrics
//	go run . -workload run_cold -seed 1 -seconds 20 -trace 1   # per-layer metrics
//	go run . -seed 1 -out runs.jsonl                           # all four workloads
//	go run . -compare base.jsonl change.jsonl                  # judge a change
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check makes the
// command exit 1. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"infat/internal/rt"
	"infat/internal/workloads"
)

// setupRepeats is how many times each workload sets itself up; setup_s
// is the median.
const setupRepeats = 7

//go:embed testdata/report.sha256
var goldenFile string

// metricSpec names one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints, for every workload.
// An op is one report pass, one /v1/run request, or one cold campaign.
// The latency tail is kept in the record but has no bound: on a shared
// 2-vCPU host, p99 and p90 of 20-second closed-loop runs moved by a
// quarter to a half of their median from run to run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_mem_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run prints, for every workload; a
// layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := []metricSpec{
		{"exp.perf_cell_ms", "ms", "lower"},
		{"exp.mem_cell_ms", "ms", "lower"},
		{"exp.assemble_ms", "ms", "lower"},
		{"exp.sim_mips", "Minstr/s", "higher"},
		{"rt.acquire_us", "us", "lower"},
		{"workloads.run_ms", "ms", "lower"},
		{"rt.release_us", "us", "lower"},
		{"machine.instrs", "count", "lower"},
		{"machine.cycles", "count", "lower"},
		{"machine.promotes", "count", "lower"},
		{"machine.promote_valid", "count", "lower"},
		{"machine.checks", "count", "lower"},
		{"machine.meta_fetches", "count", "lower"},
		{"cache.l1d_accesses", "count", "lower"},
		{"cache.l1d_misses", "count", "lower"},
		{"rt.heap_objects", "count", "lower"},
	}
	for _, class := range []string{"juliet", "kernel"} {
		for _, stage := range minicStages {
			for _, q := range []string{"p50", "p99"} {
				specs = append(specs, metricSpec{"minic." + class + "." + stage + "_us_" + q, "us", "lower"})
			}
		}
	}
	specs = append(specs,
		metricSpec{"server.handler_us", "us", "lower"},
		metricSpec{"http.overhead_us", "us", "lower"},
		metricSpec{"server.admission_rejected", "count", "lower"},
		metricSpec{"memo.hit_ratio", "ratio", "higher"},
		metricSpec{"memo.evictions_per_req", "ratio", "lower"},
		metricSpec{"shard.backend_cells_skew", "ratio", "lower"},
		metricSpec{"server.stream_s", "s", "lower"},
		metricSpec{"client.first_cell_ms", "ms", "lower"},
		metricSpec{"shard.replay_ms", "ms", "lower"},
		metricSpec{"shard.hedged_cells", "count", "lower"},
		metricSpec{"shard.reassigned_cells", "count", "lower"},
		metricSpec{"shard.dup_suppressed", "count", "lower"},
		metricSpec{"shard.corrupt_lines", "count", "lower"},
		metricSpec{"go.allocs_per_op", "count", "lower"},
		metricSpec{"go.alloc_mb_per_op", "MB", "lower"},
		metricSpec{"go.gc_cpu_pct", "%", "lower"},
	)
	for _, b := range selfBuckets {
		specs = append(specs, metricSpec{b.key + ".self_pct", "%", "lower"})
	}
	return specs
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(*config) (*outcome, error)
}

var allWorkloads = []workload{
	{"report_serial_cold", runReport},
	{"run_cold", runCold},
	{"run_warm", runWarm},
	{"campaign_shard", runCampaign},
}

// config is what every workload runs under.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   *tracer // nil for an untraced run
	golden  string  // hex sha256 of the assembled full report
	ws      []workloads.Workload
	nproc   int
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed  int
	failures           []string
	setup, setupScaled []float64 // seconds per set-up, as measured and scaled
	ops, rawOps        []float64 // ms per op, scaled to the reference host and as measured
	rates, rawRates    []float64 // ops per second of one window of work, scaled and as measured
	layer              map[string]float64

	start      time.Time // the measurement window opened
	probes     []float64 // host probe ms, one before and one after every slice
	peak       *peakSampler
	slicePeaks []float64 // MB
	runtime    runtimeStats
	profiles   [][]byte // one CPU profile per slice of a traced run
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// fail counts one failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// more reports whether op i should start: always until least ops ran,
// then while the measurement window lasts.
func (o *outcome) more(c *config, i, least int) bool {
	return i < least || time.Since(o.start) < c.seconds
}

// timeSetup runs one set-up between host probes and records its time.
func (o *outcome) timeSetup(setup func() error) error {
	before := probeHost()
	start := time.Now()
	err := setup()
	d := time.Since(start).Seconds()
	o.addSetup(d, probeRefMs/((before+probeHost())/2))
	return err
}

// addSetup records one set-up's seconds and its factor to the reference
// host speed.
func (o *outcome) addSetup(s, f float64) {
	o.setup = append(o.setup, s)
	o.setupScaled = append(o.setupScaled, s*f)
}

// begin opens the measurement window with a host probe.
func (o *outcome) begin() {
	o.probes = append(o.probes, probeHost())
	o.peak = startPeakSampler()
	o.start = time.Now()
}

// slice runs one stretch of the window's work, probes the host after it,
// and returns the work's duration and its factor to the reference host
// speed (probeRefMs over the mean of the probes around it). Runtime
// counters and, in a traced run, the CPU profile cover the work only,
// never a probe.
func (o *outcome) slice(c *config, work func()) (time.Duration, float64) {
	var prof bytes.Buffer
	profiling := c.trace != nil && pprof.StartCPUProfile(&prof) == nil
	before := readRuntimeStats()
	start := time.Now()
	work()
	dur := time.Since(start)
	after := readRuntimeStats()
	if profiling {
		pprof.StopCPUProfile()
		o.profiles = append(o.profiles, prof.Bytes())
	}
	o.runtime.allocObjects += after.allocObjects - before.allocObjects
	o.runtime.allocBytes += after.allocBytes - before.allocBytes
	o.runtime.gcCPU += after.gcCPU - before.gcCPU
	o.runtime.totalCPU += after.totalCPU - before.totalCPU
	o.slicePeaks = append(o.slicePeaks, o.peak.take())
	prev := o.probes[len(o.probes)-1]
	o.probes = append(o.probes, probeHost())
	return dur, probeRefMs / ((prev + o.probes[len(o.probes)-1]) / 2)
}

// addOp records one completed op, as measured and scaled.
func (o *outcome) addOp(rawMs, scaledMs float64) {
	o.rawOps = append(o.rawOps, rawMs)
	o.ops = append(o.ops, scaledMs)
}

// addRate records the throughput of one window of work: n ops completed
// in d, whose factor to the reference host speed is f. A window is a
// one-second slice of /v1/run load, a report pass, or a cold campaign;
// throughput is the median over windows, which a burst of interference
// in one window cannot move.
func (o *outcome) addRate(n int, d time.Duration, f float64) {
	o.rawRates = append(o.rawRates, float64(n)/d.Seconds())
	o.rates = append(o.rates, float64(n)/(d.Seconds()*f))
}

// endToEnd computes the end-to-end metrics at the reference host speed,
// and as measured, and summarizes the scaled and raw op times.
func (o *outcome) endToEnd() (scaled, raw map[string]float64, t, rawT timing) {
	o.peak.finish()
	t, rawT = summarize(o.ops), summarize(o.rawOps)
	peak := median(o.slicePeaks)
	scaled = map[string]float64{
		"setup_s":          median(o.setupScaled),
		"latency_p50_ms":   t.P50,
		"throughput_per_s": median(o.rates),
		"peak_mem_mb":      peak,
	}
	raw = map[string]float64{
		"setup_s":          median(o.setup),
		"latency_p50_ms":   rawT.P50,
		"throughput_per_s": median(o.rawRates),
		"peak_mem_mb":      peak,
	}
	return scaled, raw, t, rawT
}

// runtimeStats is the slice of runtime/metrics the benchmark reads.
type runtimeStats struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	heldBytes                uint64 // mapped and not returned to the OS
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func readRuntimeStats() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocObjects: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3), heldBytes: u(4) - u(5)}
}

// peakSampler tracks the peak of the memory the runtime holds: all it
// has mapped less the heap pages it has returned to the OS. The mapped
// total alone never falls, so it records the process's highest heap
// ever, set-up included, in steps of whole heap arenas. The reported
// peak is the median over slices of each slice's peak, which one late
// heap spike cannot move.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	p.observe()
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.observe()
			}
		}
	}()
	return p
}

func (p *peakSampler) observe() {
	b := readRuntimeStats().heldBytes
	p.mu.Lock()
	if b > p.peak {
		p.peak = b
	}
	p.mu.Unlock()
}

// take returns the peak in MB since the last take and restarts the
// peak from the current value.
func (p *peakSampler) take() float64 {
	p.observe()
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := p.peak
	p.peak = readRuntimeStats().heldBytes
	return float64(peak) / (1 << 20)
}

// finish stops the sampler and waits for it.
func (p *peakSampler) finish() {
	close(p.stop)
	<-p.done
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out and the results directory keep it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Nproc    int     `json:"nproc"`
	Traced   bool    `json:"traced"`
	Ops      int     `json:"ops"`
	// Tail names the highest percentile with at least ten ops beyond it;
	// TailMs is that op time, scaled, and RawTailMs as measured.
	Tail      string  `json:"tail"`
	TailMs    float64 `json:"tail_ms"`
	RawTailMs float64 `json:"raw_tail_ms"`
	Setups    int     `json:"setups"`
	// HostProbeMs is the median host probe; EndToEnd is scaled by
	// probeRefMs over the probes around each slice, Raw is as measured.
	HostProbeMs float64                `json:"host_probe_ms"`
	Raw         map[string]metricValue `json:"raw"`
	// ProfileSamples is the CPU profile's sample count behind self_pct.
	ProfileSamples int64                  `json:"profile_samples,omitempty"`
	Failures       []string               `json:"failures,omitempty"`
	EndToEnd       map[string]metricValue `json:"end_to_end"`
	result
	profiles [][]byte // a traced run's CPU profiles, one per slice
}

// measure runs one workload and turns its outcome into the record.
func measure(w workload, c *config) (record, error) {
	o, err := w.run(c)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", w.name, err)
	}
	scaled, raw, t, rawT := o.endToEnd()
	rec := record{
		Workload: w.name, Seed: c.seed, Seconds: c.seconds.Seconds(), Nproc: c.nproc,
		Traced: c.trace != nil, Ops: t.N, Tail: t.TailLabel, TailMs: t.Tail, RawTailMs: rawT.Tail, Setups: len(o.setup),
		HostProbeMs: median(o.probes), Failures: o.failures,
		EndToEnd: withUnits(endToEnd, scaled), Raw: withUnits(endToEnd, raw),
	}
	rec.Attempted, rec.Failed = o.attempted, o.failed
	rec.Correct = o.failed == 0 && o.attempted > 0
	if c.trace == nil {
		rec.Metrics = rec.EndToEnd
		return rec, nil
	}

	layer := o.layer
	if ops := float64(o.attempted); ops > 0 {
		layer["go.allocs_per_op"] = float64(o.runtime.allocObjects) / ops
		layer["go.alloc_mb_per_op"] = float64(o.runtime.allocBytes) / (1 << 20) / ops
	}
	if o.runtime.totalCPU > 0 {
		layer["go.gc_cpu_pct"] = 100 * o.runtime.gcCPU / o.runtime.totalCPU
	}
	if len(o.profiles) > 0 {
		leaves := map[string]int64{}
		for _, p := range o.profiles {
			l, err := leafSamples(p)
			if err != nil {
				return record{}, fmt.Errorf("%s: cpu profile: %w", w.name, err)
			}
			for k, v := range l {
				leaves[k] += v
			}
		}
		shares, n := selfPct(leaves)
		for k, v := range shares {
			layer[k+".self_pct"] = v
		}
		rec.ProfileSamples = n
		rec.profiles = o.profiles
	}
	rec.Metrics = withUnits(perLayer, layer)
	return rec, nil
}

// withUnits renders every spec'd metric, 0 where nothing was measured.
func withUnits(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}

// printRecord writes a human-readable summary to w.
func printRecord(w io.Writer, rec record) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%g nproc=%d %s: attempted=%d failed=%d ops=%d setups=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Nproc, mode, rec.Attempted, rec.Failed, rec.Ops, rec.Setups)
	fmt.Fprintf(w, "  host probe %.3f ms; end-to-end times are scaled to the %g ms reference (raw in brackets)\n",
		rec.HostProbeMs, probeRefMs)
	fmt.Fprintf(w, "  %-36s %14.6g %-8s  [%.6g]\n", "latency "+rec.Tail+" (no bound)", rec.TailMs, "ms", rec.RawTailMs)
	if rec.ProfileSamples > 0 {
		fmt.Fprintf(w, "  self_pct from %d CPU profile samples\n", rec.ProfileSamples)
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		raw := ""
		if r, ok := rec.Raw[k]; ok {
			raw = fmt.Sprintf("  [%.6g]", r.Value)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s%s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit, raw)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// writeJSON stores v as one JSON document.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendRecord adds rec as one line of a JSON Lines file.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overhead is the traced minus the untraced end-to-end value of each
// metric, against the latest untraced run of the same workload.
func overhead(dir string, traced record) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(dir, "results", traced.Workload+"-untraced.json"))
	if err != nil {
		return nil, err
	}
	var base record
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(endToEnd))
	for _, s := range endToEnd {
		out[s.Name] = traced.EndToEnd[s.Name].Value - base.EndToEnd[s.Name].Value
	}
	return out, nil
}

// runOne measures one workload and keeps its record, spans and profile.
func runOne(w workload, c *config, dir, out string, stderr io.Writer) (record, error) {
	rec, err := measure(w, c)
	if err != nil {
		return rec, err
	}
	printRecord(stderr, rec)
	kind := "untraced"
	if c.trace != nil {
		kind = "traced"
	}
	if err := writeJSON(filepath.Join(dir, "results", w.name+"-"+kind+".json"), rec); err != nil {
		return rec, err
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return rec, err
		}
	}
	if c.trace == nil {
		return rec, nil
	}
	tdir := filepath.Join(dir, "trace", w.name)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return rec, err
	}
	dropped, err := c.trace.write(tdir)
	if err != nil {
		return rec, err
	}
	for i, p := range rec.profiles {
		if err := os.WriteFile(filepath.Join(tdir, fmt.Sprintf("cpu-%03d.pprof", i)), p, 0o644); err != nil {
			return rec, err
		}
	}
	fmt.Fprintf(stderr, "  spans and CPU profiles in %s (%d spans over the %d-span cap not kept)\n", tdir, dropped, maxSpans)
	ov, err := overhead(dir, rec)
	if err != nil {
		fmt.Fprintf(stderr, "  tracing overhead: no untraced run of %s to compare with (%v)\n", w.name, err)
		return rec, nil
	}
	fmt.Fprintf(stderr, "  tracing overhead (traced - untraced):\n")
	for _, s := range endToEnd {
		fmt.Fprintf(stderr, "    %-20s %+12.6g %s\n", s.Name, ov[s.Name], s.Unit)
	}
	return rec, writeJSON(filepath.Join(tdir, "overhead.json"), ov)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all four in order)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for results, spans and profiles")
	out := fs.String("out", "", "append each run's record to this JSON Lines file")
	compare := fs.Bool("compare", false, "compare record files: BASE CHANGE...")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*spec, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}
	golden := strings.TrimSpace(goldenFile)
	ws := allWorkloads
	if *name != "" {
		ws = nil
		for _, w := range allWorkloads {
			if w.name == *name {
				ws = []workload{w}
			}
		}
		if ws == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	c := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		golden:  golden,
		ws:      workloads.All,
		nproc:   runtime.NumCPU(),
	}
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, w := range ws {
		if i > 0 {
			// Start each workload as a process of its own would: an idle
			// runtime pooled by the report's scale-4 cells slows every later
			// small run that resets it.
			rt.DefaultPool.Drain()
			runtime.GC()
		}
		if *trace == 1 {
			c.trace = newTracer()
		}
		rec, err := runOne(w, c, *dir, *out, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

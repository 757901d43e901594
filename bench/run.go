package main

import (
	"context"
	"embed"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infat/internal/juliet"
	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/rt"
	"infat/internal/server"
)

//go:embed testdata/*.c
var testdataFS embed.FS

// program is one corpus entry of the /v1/run workloads.
type program struct {
	name, src string
}

// corpus returns the /v1/run programs: the Juliet suites plus the MiniC
// test programs, and separately the three kernels (fib, arrays, list)
// whose runs spend ~1 ms in VM dispatch.
func corpus() (progs, kernels []program, err error) {
	for _, c := range append(juliet.Generate(), juliet.GenerateCWE415416()...) {
		progs = append(progs, program{c.Name, c.Src})
	}
	entries, err := testdataFS.ReadDir("testdata")
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		b, err := testdataFS.ReadFile("testdata/" + e.Name())
		if err != nil {
			return nil, nil, err
		}
		p := program{e.Name(), string(b)}
		if strings.HasPrefix(e.Name(), "kernel_") {
			kernels = append(kernels, p)
		} else {
			progs = append(progs, p)
		}
	}
	return progs, kernels, nil
}

// runReq is one /v1/run request of a seeded stream.
type runReq struct {
	kernel bool
	prog   int
	mode   rt.Mode
	nonce  string // appended as a trailing comment: distinct bytes, same lines
}

// requestAt is request k of the cold stream for seed: a kernel with
// probability 1/5, otherwise a corpus program, in a seeded mode.
func requestAt(seed, k uint64, nProgs, nKernels int) runReq {
	h := splitmix64(seed*0x9E3779B97F4A7C15 ^ splitmix64(k))
	r := runReq{mode: rt.Modes[(h>>40)%uint64(len(rt.Modes))], nonce: fmt.Sprintf("seed %d request %d", seed, k)}
	if h%5 == 0 {
		r.kernel, r.prog = true, int((h>>8)%uint64(nKernels))
	} else {
		r.prog = int((h >> 8) % uint64(nProgs))
	}
	return r
}

// reference is the in-process answer a /v1/run response must match.
type reference struct {
	out      []int64
	exit     int64
	counters machine.Counters
	trapKind string
	trapMsg  string // "" for a clean run
}

// computeReference runs src under the server's default fuel.
func computeReference(src string, mode rt.Mode) (reference, error) {
	out, exit, counters, err := minic.ExecuteBudget(src, mode, server.DefaultFuel)
	ref := reference{out: out, exit: exit, counters: counters}
	if err != nil {
		var re *minic.RunError
		if !errors.As(err, &re) {
			return ref, fmt.Errorf("does not compile: %w", err)
		}
		ref.trapMsg = err.Error()
		var t *machine.Trap
		if errors.As(err, &t) {
			ref.trapKind = t.Kind.String()
		}
	}
	return ref, nil
}

// check compares an observed run against the reference.
func (ref reference) check(out []int64, exit int64, counters machine.Counters, trapKind, trapMsg string) error {
	switch {
	case !slices.Equal(out, ref.out):
		return fmt.Errorf("output %v, want %v", out, ref.out)
	case exit != ref.exit:
		return fmt.Errorf("exit %d, want %d", exit, ref.exit)
	case trapMsg != ref.trapMsg || trapKind != ref.trapKind:
		return fmt.Errorf("trap %q (%s), want %q (%s)", trapMsg, trapKind, ref.trapMsg, ref.trapKind)
	case counters != ref.counters:
		return errors.New("counters differ from the in-process reference")
	}
	return nil
}

func (ref reference) checkResponse(resp *server.RunResponse, mode rt.Mode) error {
	if resp.Mode != mode.String() || resp.Fuel != server.DefaultFuel {
		return fmt.Errorf("mode %s fuel %d, want %s %d", resp.Mode, resp.Fuel, mode, uint64(server.DefaultFuel))
	}
	var kind, msg string
	if resp.Trap != nil {
		kind, msg = resp.Trap.Kind, resp.Trap.Message
	}
	return ref.check(resp.Output, resp.Exit, resp.Counters, kind, msg)
}

// liveServer is an http.Server on a loopback port.
type liveServer struct {
	addr, url string
	srv       *http.Server
	done      chan struct{}
}

func listen(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	s := &liveServer{addr: addr, url: "http://" + addr, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *liveServer) close() {
	s.srv.Close()
	<-s.done
}

// loadClient is a server.Client whose connections are capped at nproc
// and whose calls are not retried, so a refusal counts as a failure.
func loadClient(url string, c *config) (*server.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: c.nproc, MaxConnsPerHost: c.nproc, DisableCompression: true}
	var rtr http.RoundTripper = tr
	if c.trace != nil {
		rtr = tracingTransport{tr, c.trace}
	}
	cl := server.NewClient(url)
	cl.HTTP = &http.Client{Transport: rtr, Timeout: 2 * server.DefaultRequestTimeout}
	cl.NoRetry = true
	return cl, tr
}

// runEnv is the set-up both /v1/run workloads share: the corpus, its
// references in every mode, and a server with NumCPU workers.
type runEnv struct {
	progs, kernels []program
	refs           map[refKey]reference
	live           *liveServer
	client         *server.Client
	transport      *http.Transport
}

type refKey struct {
	kernel bool
	prog   int
	mode   rt.Mode
}

func newRunEnv(c *config) (*runEnv, error) {
	progs, kernels, err := corpus()
	if err != nil {
		return nil, err
	}
	e := &runEnv{progs: progs, kernels: kernels, refs: make(map[refKey]reference)}
	for _, kernel := range []bool{false, true} {
		for i, p := range e.list(kernel) {
			for _, m := range rt.Modes {
				ref, err := computeReference(p.src, m)
				if err != nil {
					return nil, fmt.Errorf("reference %s/%s: %w", p.name, m, err)
				}
				e.refs[refKey{kernel, i, m}] = ref
			}
		}
	}
	srv := server.New(server.Config{Workers: c.nproc})
	if e.live, err = listen(traceHandler(c.trace, "server.handler", srv)); err != nil {
		return nil, err
	}
	e.client, e.transport = loadClient(e.live.url, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.client.WaitReady(ctx, 10*time.Second); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *runEnv) list(kernel bool) []program {
	if kernel {
		return e.kernels
	}
	return e.progs
}

func (e *runEnv) source(r runReq) string {
	return e.list(r.kernel)[r.prog].src + "\n// " + r.nonce + "\n"
}

func (e *runEnv) close() {
	e.live.close()
	e.transport.CloseIdleConnections()
}

// send posts one request and checks the response and its cache state.
func (e *runEnv) send(ctx context.Context, r runReq, wantCached bool) error {
	resp, cached, err := e.client.Run(ctx, server.RunRequest{Source: e.source(r), Mode: r.mode.String()})
	if err != nil {
		return err
	}
	if cached != wantCached {
		return fmt.Errorf("cached=%v, want %v", cached, wantCached)
	}
	return e.refs[refKey{r.kernel, r.prog, r.mode}].checkResponse(resp, r.mode)
}

// memoCounters reads the /v1/run slice of the server's memo store.
func (e *runEnv) memoCounters() (map[string]uint64, map[string]uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, err := e.client.Metrics(ctx)
	if err != nil {
		return nil, nil, err
	}
	return m.Cache, m.Admission, nil
}

// runSlice is the length of one slice of closed-loop load between host
// probes.
const runSlice = time.Second

// driveSlices runs the closed loop for d, in slices between host probes.
// The op stream continues across slices.
func driveSlices(c *config, o *outcome, d time.Duration, op func(ctx context.Context, k uint64) error) {
	end := time.Now().Add(d)
	var next atomic.Uint64
	for time.Now().Before(end) {
		until := time.Now().Add(runSlice)
		if until.After(end) {
			until = end
		}
		var lat []float64
		d, f := o.slice(c, func() { lat = drive(c, o, until, &next, op) })
		for _, v := range lat {
			o.addOp(v, v*f)
		}
		o.addRate(len(lat), d, f)
	}
}

// drive runs nproc closed-loop callers until the given time: each takes
// the next op index of the seeded stream, runs it, and waits for the
// reply before taking another. It returns the completed ops' latencies.
func drive(c *config, o *outcome, until time.Time, next *atomic.Uint64, op func(ctx context.Context, k uint64) error) []float64 {
	var all []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < c.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var errs []error
			for time.Now().Before(until) {
				k := next.Add(1) - 1
				id := c.trace.newID()
				ctx := withOp(context.Background(), id, int64(k+1))
				t0 := time.Now()
				err := op(ctx, k)
				t1 := time.Now()
				c.trace.add(id, "run.request", t0, t1, 0, int64(k+1))
				if err != nil {
					errs = append(errs, fmt.Errorf("request %d: %w", k, err))
					continue
				}
				lat = append(lat, float64(t1.Sub(t0))/1e6)
			}
			mu.Lock()
			defer mu.Unlock()
			o.attempted += len(lat) + len(errs)
			all = append(all, lat...)
			for _, err := range errs {
				o.fail("%v", err)
			}
		}()
	}
	wg.Wait()
	return all
}

// setupRunEnv sets the environment up setupRepeats times, keeping the
// last, and runs prime on each.
func setupRunEnv(c *config, o *outcome, prime func(*runEnv) error) (*runEnv, error) {
	var env *runEnv
	for k := 0; k < setupRepeats; k++ {
		var e *runEnv
		err := o.timeSetup(func() error {
			var err error
			if e, err = newRunEnv(c); err == nil && prime != nil {
				if err = prime(e); err != nil {
					e.close()
				}
			}
			return err
		})
		if err != nil {
			if env != nil {
				env.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if env != nil {
			env.close()
		}
		env = e
	}
	return env, nil
}

// serverLayers fills the server and memo per-layer metrics from the
// /metrics deltas and the handler spans, and gates the cache state.
func serverLayers(c *config, o *outcome, env *runEnv, before, beforeAdm map[string]uint64, sent int, cold bool) {
	after, afterAdm, err := env.memoCounters()
	if err != nil {
		o.fail("metrics: %v", err)
		return
	}
	hits, misses := after["hits"]-before["hits"], after["misses"]-before["misses"]
	if cold && (hits != 0 || misses != uint64(sent)) {
		o.fail("memo: %d hits and %d misses over %d cold requests", hits, misses, sent)
	}
	if !cold && (misses != 0 || hits != uint64(sent)) {
		o.fail("memo: %d hits and %d misses over %d warm requests", hits, misses, sent)
	}
	if hits+misses > 0 {
		o.layer["memo.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if sent > 0 {
		o.layer["memo.evictions_per_req"] = float64(after["evictions"]-before["evictions"]) / float64(sent)
	}
	o.layer["server.admission_rejected"] = float64(afterAdm["rejected"] - beforeAdm["rejected"])
	if c.trace == nil {
		return
	}
	handler := c.trace.byReq("server.handler")
	var hs, over []float64
	for req, d := range c.trace.byReq("http.roundtrip") {
		if h, ok := handler[req]; ok {
			hs = append(hs, 1000*h)
			over = append(over, 1000*(d-h))
		}
	}
	o.layer["server.handler_us"] = median(hs)
	o.layer["http.overhead_us"] = median(over)
}

// runCold is run_cold: every request is a distinct program, so each
// misses the interner and the memo.
func runCold(c *config) (*outcome, error) {
	o := newOutcome()
	env, err := setupRunEnv(c, o, nil)
	if err != nil {
		return nil, err
	}
	defer env.close()
	before, beforeAdm, err := env.memoCounters()
	if err != nil {
		return nil, err
	}
	o.begin()
	httpFor := c.seconds
	if c.trace != nil {
		httpFor /= 2 // the other half replays the same stream in-process
	}
	driveSlices(c, o, httpFor, func(ctx context.Context, k uint64) error {
		return env.send(ctx, requestAt(c.seed, k, len(env.progs), len(env.kernels)), false)
	})
	sent := o.attempted
	if c.trace != nil {
		o.slice(c, func() { replayInProcess(c, o, env, min(sent, maxReplay)) })
	}
	serverLayers(c, o, env, before, beforeAdm, sent, true)
	return o, nil
}

// maxReplay bounds the requests a traced run_cold replays in-process,
// keeping its spans within the tracer's cap.
const maxReplay = 20_000

// minicStages are the front-end and VM steps a traced run_cold times.
var minicStages = []string{"parse", "compile", "lower", "newvm", "vm_run"}

// replayInProcess replays the first n requests of the cold stream
// through minic's own entry points, one call per stage, and checks each
// run against the reference.
func replayInProcess(c *config, o *outcome, env *runEnv, n int) {
	for k := uint64(0); k < uint64(n); k++ {
		r := requestAt(c.seed, k, len(env.progs), len(env.kernels))
		class := "juliet"
		if r.kernel {
			class = "kernel"
		}
		o.attempted++
		if err := replayOne(c, env, r, "minic."+class+".", int64(k+1)); err != nil {
			o.fail("in-process request %d: %v", k, err)
		}
	}
	for _, class := range []string{"juliet", "kernel"} {
		for _, stage := range minicStages {
			d := sortedCopy(c.trace.durations("minic." + class + "." + stage))
			o.layer["minic."+class+"."+stage+"_us_p50"] = 1000 * median(d)
			o.layer["minic."+class+"."+stage+"_us_p99"] = 1000 * nearestRank(d, 99)
		}
	}
	o.layer["rt.acquire_us"] = 1000 * median(c.trace.durations("rt.acquire"))
	o.layer["rt.release_us"] = 1000 * median(c.trace.durations("rt.release"))
}

func replayOne(c *config, env *runEnv, r runReq, prefix string, req int64) error {
	src := env.source(r)
	t0 := time.Now()
	prog, err := minic.Parse(src)
	t1 := time.Now()
	c.trace.add(0, prefix+"parse", t0, t1, 0, req)
	if err != nil {
		return err
	}
	comp, err := minic.Compile(prog)
	t2 := time.Now()
	c.trace.add(0, prefix+"compile", t1, t2, 0, req)
	if err != nil {
		return err
	}
	comp.Lowered()
	t3 := time.Now()
	c.trace.add(0, prefix+"lower", t2, t3, 0, req)
	r0 := time.Now()
	run := rt.Acquire(r.mode)
	c.trace.add(0, "rt.acquire", r0, time.Now(), 0, req)
	defer func() {
		r1 := time.Now()
		rt.Release(run)
		c.trace.add(0, "rt.release", r1, time.Now(), 0, req)
	}()
	t4 := time.Now()
	vm, err := minic.NewVM(comp, run)
	t5 := time.Now()
	c.trace.add(0, prefix+"newvm", t4, t5, 0, req)
	if err != nil {
		return err
	}
	run.M.FuelLimit = server.DefaultFuel
	exit, err := vm.Run()
	c.trace.add(0, prefix+"vm_run", t5, time.Now(), 0, req)
	var kind, msg string
	if err != nil {
		msg = err.Error()
		var t *machine.Trap
		if errors.As(err, &t) {
			kind = t.Kind.String()
		}
	}
	return env.refs[refKey{r.kernel, r.prog, r.mode}].check(vm.Out, exit, run.M.C, kind, msg)
}

// hotSetSize is the number of (source, mode) pairs run_warm cycles over.
const hotSetSize = 64

// hotSet is run_warm's seeded set of pairs, drawn like cold requests
// but from their own stream.
func hotSet(seed uint64, nProgs, nKernels int) []runReq {
	hot := make([]runReq, hotSetSize)
	for j := range hot {
		hot[j] = requestAt(seed^0x407_5E7, uint64(j), nProgs, nKernels)
	}
	return hot
}

// runWarm is run_warm: every request repeats a primed pair, so each is a
// memo hit and the time is serving overhead.
func runWarm(c *config) (*outcome, error) {
	o := newOutcome()
	var hot []runReq
	env, err := setupRunEnv(c, o, func(e *runEnv) error {
		hot = hotSet(c.seed, len(e.progs), len(e.kernels))
		for _, r := range hot {
			if err := e.send(context.Background(), r, false); err != nil {
				return fmt.Errorf("priming: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	before, beforeAdm, err := env.memoCounters()
	if err != nil {
		return nil, err
	}
	o.begin()
	driveSlices(c, o, c.seconds, func(ctx context.Context, k uint64) error {
		return env.send(ctx, hot[splitmix64(c.seed^0x3A7E^k)%hotSetSize], true)
	})
	serverLayers(c, o, env, before, beforeAdm, o.attempted, false)
	return o, nil
}

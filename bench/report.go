package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"infat/internal/exp"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// splitmix64 is the benchmark's input generator: a pure function of its
// argument, so request k of seed s is the same on every run and machine.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// cellOrder is the seed-shuffled order in which a pass computes the
// plan's n cells (Fisher-Yates over splitmix64).
func cellOrder(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	state := splitmix64(seed ^ 0x5EED_CE11)
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// reportDigest is the hex sha256 the golden file records.
func reportDigest(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:])
}

// modelled sums the simulated counts of one pass's perf cells. They are
// exact: any simulator-speed change must leave them identical.
type modelled struct {
	instrs, cycles, promotes, promoteValid, checks, metaFetches uint64
	l1dAccesses, l1dMisses, heapObjects                         uint64
}

func (m *modelled) add(r *exp.ModeResult, l1dAccesses uint64) {
	c := &r.Counters
	m.instrs += c.Instrs
	m.cycles += c.Cycles
	m.promotes += c.Promote
	m.promoteValid += c.PromoteValid
	m.checks += c.Checks
	m.metaFetches += c.MetaFetches
	m.l1dAccesses += l1dAccesses
	m.l1dMisses += r.L1DMisses
	m.heapObjects += r.Stats.HeapObjects
}

func (m modelled) metrics() map[string]float64 {
	return map[string]float64{
		"machine.instrs":        float64(m.instrs),
		"machine.cycles":        float64(m.cycles),
		"machine.promotes":      float64(m.promotes),
		"machine.promote_valid": float64(m.promoteValid),
		"machine.checks":        float64(m.checks),
		"machine.meta_fetches":  float64(m.metaFetches),
		"cache.l1d_accesses":    float64(m.l1dAccesses),
		"cache.l1d_misses":      float64(m.l1dMisses),
		"rt.heap_objects":       float64(m.heapObjects),
	}
}

// cellCoords resolves a plan cell to the coordinates exp runs it at.
func cellCoords(p exp.Plan, i int) (w workloads.Workload, mode rt.Mode, noPromote bool, scale int, err error) {
	m := p.Meta(i)
	w, ok := workloads.ByName(m.Workload)
	if !ok {
		return w, 0, false, 0, fmt.Errorf("cell %d: unknown workload %q", i, m.Workload)
	}
	label := strings.TrimSuffix(m.Config, "-nopromote")
	noPromote = label != m.Config
	if mode, err = rt.ParseMode(label); err != nil {
		return w, 0, false, 0, fmt.Errorf("cell %d: %w", i, err)
	}
	scale = p.Scale()
	if m.Kind == exp.CellMem {
		scale *= p.MemScale()
	}
	return w, mode, noPromote, scale, nil
}

// decomposedCell runs cell i the way exp does, but through the layers'
// own entry points so each call is timed: rt.Acquire, Workload.Run,
// rt.Release. It also reads the L1D access count, which exp does not
// keep.
func decomposedCell(c *config, p exp.Plan, i int, parent int64) (exp.CellResult, uint64, error) {
	w, mode, noPromote, scale, err := cellCoords(p, i)
	if err != nil {
		return exp.CellResult{}, 0, err
	}
	t0 := time.Now()
	r := rt.Acquire(mode)
	t1 := time.Now()
	r.M.NoPromote = noPromote
	sum, err := w.Run(r, scale)
	t2 := time.Now()
	m := exp.ModeResult{
		Counters:  r.M.C,
		Stats:     r.Stats,
		Footprint: r.Footprint(),
		Checksum:  sum,
		L1DMisses: r.M.L1D.Stats().Misses,
	}
	accesses := r.M.L1D.Stats().Accesses
	t3 := time.Now()
	rt.Release(r)
	t4 := time.Now()
	c.trace.add(0, "rt.acquire", t0, t1, parent, 0)
	c.trace.add(0, "workloads.run", t1, t2, parent, 0)
	c.trace.add(0, "rt.release", t3, t4, parent, 0)
	if err != nil {
		return exp.CellResult{}, 0, fmt.Errorf("cell %d: %w", i, err)
	}
	if p.Meta(i).Kind == exp.CellPerf {
		return exp.CellResult{Perf: &m}, accesses, nil
	}
	return exp.CellResult{Footprint: m.Footprint}, accesses, nil
}

// runReport is report_serial_cold: the full report plan, no memo, one
// worker, cells in a seed-shuffled order folded back through Assembly,
// every pass checked against the golden digest.
func runReport(c *config) (*outcome, error) {
	o := newOutcome()
	var plan exp.Plan
	var order []int
	for k := 0; k < setupRepeats; k++ {
		err := o.timeSetup(func() error {
			plan = exp.NewReportPlan(c.ws, 1, exp.MemScale)
			order = cellOrder(c.seed, plan.NumCells())
			// One cell per configuration fills rt.Pool, so no timed pass
			// pays for building a runtime.
			for i := 0; i < 5 && i < plan.NumCells(); i++ {
				if _, err := plan.ComputeCell(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("report set-up: %w", err)
		}
	}

	var perfNs, perfInstrs float64
	var counts *modelled
	o.begin()
	minPasses := 1
	if c.trace != nil {
		minPasses = 2 // one pass of each kind
	}
	for pass := 0; o.more(c, pass, minPasses); pass++ {
		// Traced runs alternate: even passes decompose every cell into its
		// layers, odd passes time exp.Plan.ComputeCell whole.
		p := &reportPass{c: c, plan: plan, a: plan.NewAssembly(), id: c.trace.newID(),
			decompose: c.trace != nil && pass%2 == 0, perfNs: &perfNs, perfInstrs: &perfInstrs}
		var total time.Duration
		var scaled float64
		var segs []time.Duration
		var factors []float64
		// A pass runs in segments between host probes, so interference that
		// comes and goes within a pass is scaled out where it happened.
		for from := 0; from < len(order) && p.err == nil; from += passSegment {
			to := min(from+passSegment, len(order))
			d, f := o.slice(c, func() { p.run(order[from:to], to == len(order)) })
			segs, factors = append(segs, d), append(factors, f)
		}
		o.attempted++
		if p.err != nil {
			o.fail("pass %d: %v", pass, p.err)
			continue
		}
		for i, d := range segs {
			total += d
			scaled += float64(d) / 1e6 * factors[i]
		}
		raw := float64(total) / 1e6
		o.addOp(raw, scaled)
		o.addRate(1, total, scaled/raw)
		if p.decompose {
			if counts != nil && *counts != p.m {
				o.fail("pass %d: modelled counts differ from an earlier pass", pass)
			}
			counts = &p.m
		}
	}

	if perfNs > 0 {
		o.layer["exp.sim_mips"] = perfInstrs / 1e6 / (perfNs / 1e9)
	}
	if counts != nil {
		for k, v := range counts.metrics() {
			o.layer[k] = v
		}
	}
	if c.trace != nil {
		passes := float64(len(c.trace.durations("report.pass")))
		o.layer["exp.perf_cell_ms"] = median(c.trace.durations("exp.perf_cell"))
		o.layer["exp.mem_cell_ms"] = median(c.trace.durations("exp.mem_cell"))
		o.layer["exp.assemble_ms"] = sum(c.trace.durations("exp.assemble")) / passes
		o.layer["rt.acquire_us"] = 1000 * median(c.trace.durations("rt.acquire"))
		o.layer["workloads.run_ms"] = median(c.trace.durations("workloads.run"))
		o.layer["rt.release_us"] = 1000 * median(c.trace.durations("rt.release"))
	}
	return o, nil
}

// passSegment is the number of cells a report pass runs between two
// host probes (six segments per full pass).
const passSegment = 24

// reportPass is one pass over the plan's cells: each cell computed in the
// seeded order and folded into an Assembly; the last segment renders the
// report and checks it against the golden digest.
type reportPass struct {
	c          *config
	plan       exp.Plan
	a          *exp.Assembly
	id         int64
	decompose  bool
	perfNs     *float64 // host time in perf cells, summed over passes
	perfInstrs *float64 // instructions those cells retired
	m          modelled
	start      time.Time
	err        error
}

func (p *reportPass) run(cells []int, last bool) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	for _, i := range cells {
		t0 := time.Now()
		var res exp.CellResult
		var accesses uint64
		var err error
		if p.decompose {
			res, accesses, err = decomposedCell(p.c, p.plan, i, p.id)
		} else {
			res, err = p.plan.ComputeCell(i)
		}
		t1 := time.Now()
		if err != nil {
			p.err = err
			return
		}
		if res.Perf != nil {
			*p.perfNs += float64(t1.Sub(t0))
			*p.perfInstrs += float64(res.Perf.Counters.Instrs)
			p.m.add(res.Perf, accesses)
		}
		if !p.decompose {
			name := "exp.mem_cell"
			if res.Perf != nil {
				name = "exp.perf_cell"
			}
			p.c.trace.add(0, name, t0, t1, p.id, 0)
		}
		if p.err = p.a.Add(i, res); p.err != nil {
			return
		}
		p.c.trace.add(0, "exp.assemble", t1, time.Now(), p.id, 0)
	}
	if !last {
		return
	}
	t0 := time.Now()
	rep, err := p.a.Report()
	end := time.Now()
	p.c.trace.add(0, "exp.assemble", t0, end, p.id, 0)
	p.c.trace.add(p.id, "report.pass", p.start, end, 0, 0)
	switch {
	case err != nil:
		p.err = err
	case reportDigest(rep) != p.c.golden:
		p.err = fmt.Errorf("report sha256 %s, golden %s", reportDigest(rep), p.c.golden)
	}
}

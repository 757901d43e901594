package exp

// Cell-level decomposition of the evaluation campaigns.
//
// The batch serving tier (internal/server's /v1/batch endpoint, and
// internal/shard's fan-out front tier) needs the grid, memory, and
// chaos campaigns as flat lists of independent cells: every cell has a
// stable sequence number and identity key, and can execute on any worker
// of any process — locally, on one backend, or scattered across a shard
// ring — in any order. A perf or chaos cell runs in its own runtime. The
// memory cells of one Figure-12 row (a workload's baseline, subheap and
// wrapped footprints at one scale) share one recorded Baseline run when
// the plan computes more than one of them (rows.go); each still returns
// exactly the footprint its own run would. Plan and ChaosPlan are
// those enumerations, each a Campaign (campaign.go); an assembly folds
// streamed cells back into the exact slices a serial run produces, so
// the reassembled report is byte-identical to what ifp-bench prints.
//
// The enumeration contract (relied on by clients reassembling streams):
//
//   - Perf cells come first: seq = wi*len(configs) + ci, where wi
//     indexes the plan's workload list and ci its configurations — for
//     the report grid, paper comparison order (baseline, subheap,
//     wrapped, subheap-nopromote, wrapped-nopromote). A report section's
//     plan lists its own, baseline first; TemporalPlan's are the report
//     grid's five, then ifp-temporal.
//   - Memory cells (plans built with NewReportPlan) follow: seq =
//     perfCells + wi*len(memModes) + mi, with mi over baseline, subheap,
//     wrapped. Memory cells run at scale*memScale (Figure 12's larger
//     footprints). A NewMemPlan plan has only these cells.
//   - Chaos cells (ChaosPlan) are in (scheme, fault, seed) order: seq =
//     ((si*len(Faults))+fi)*seeds + seed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"infat/internal/chaos"
	"infat/internal/mem"
	"infat/internal/memo"
	"infat/internal/workloads"
)

// Cell kinds, carried in CellMeta and the batch API's NDJSON lines.
const (
	CellPerf  = "perf"  // one (workload, configuration) grid cell
	CellMem   = "mem"   // one (workload, mode) Figure-12 footprint cell
	CellChaos = "chaos" // one (scheme, fault, seed) fault-injection cell
)

// CellMeta identifies one cell of a plan: its sequence number in the
// deterministic enumeration plus human-readable coordinates. For chaos
// cells Workload carries the scheme and Config the fault.
type CellMeta struct {
	Seq      int    `json:"seq"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
}

// ErrCorruptCell is the sentinel every cell-contract violation wraps: a
// sequence number outside the campaign, coordinates that disagree with
// the plan's enumeration at that seq, or a payload of the wrong shape.
// A corrupt cell is never folded into an assembly — consumers reject it
// (and, in the serving tier, fail the stream that carried it) instead of
// indexing blindly and silently producing a wrong report.
var ErrCorruptCell = errors.New("exp: corrupt cell")

// ErrDuplicateCell is the sentinel a second Add of the same sequence
// number wraps. Distinct from ErrCorruptCell: the duplicate's content
// may be perfectly valid — the violation is the repetition, which the
// dedup layers (shard stream merge, client reassembly) must suppress
// rather than double-count.
var ErrDuplicateCell = errors.New("exp: duplicate cell")

// cellContractError is the concrete error behind both sentinels: the
// offending seq, the full diagnosis, and which contract was broken.
type cellContractError struct {
	seq      int
	msg      string
	sentinel error
}

func (e *cellContractError) Error() string        { return e.msg }
func (e *cellContractError) Is(target error) bool { return target == e.sentinel }

// Seq returns the offending cell's sequence number as received.
func (e *cellContractError) Seq() int { return e.seq }

func corruptCell(seq int, format string, args ...any) error {
	return &cellContractError{seq: seq, msg: fmt.Sprintf(format, args...), sentinel: ErrCorruptCell}
}

func duplicateCell(seq int, format string, args ...any) error {
	return &cellContractError{seq: seq, msg: fmt.Sprintf(format, args...), sentinel: ErrDuplicateCell}
}

// Plan is the cell-level view of a (workload × configuration) evaluation
// campaign: the §5.2 perf grid or a report section's, optionally plus the
// Figure-12 memory cells. The zero value is empty; build with a New*Plan
// or a section's *Plan function.
type Plan struct {
	ws       []workloads.Workload
	scale    int
	memScale int                                     // 0 = no memory cells
	cfgs     []Config                                // run per workload; none in NewMemPlan
	render   func(p Plan, cells []CellResult) string // the report of a verified cell set
	memo     *memo.Store                             // nil = no memoization (WithMemo attaches one)
	rows     *rowTable                               // Figure-12 rows, shared by every copy; nil without memory cells
	sel      []bool                                  // the cell selection (Select); nil = every cell
}

// NewPlan enumerates the perf grid only: len(ws) × 5 cells at the given
// scale, the first cells of NewReportPlan's. scale < 1 is raised to 1.
func NewPlan(ws []workloads.Workload, scale int) Plan {
	if scale < 1 {
		scale = 1
	}
	return Plan{ws: ws, scale: scale, cfgs: reportConfigs, render: renderReport}
}

// sectionPlan enumerates every workload of ws in every configuration of
// cfgs (baseline first: the checksum reference), rendered by render.
func sectionPlan(ws []workloads.Workload, scale int, cfgs []Config, render func(Plan, []CellResult) string) Plan {
	p := NewPlan(ws, scale)
	p.cfgs, p.render = cfgs, render
	return p
}

// NewReportPlan enumerates the full-report campaign (the /v1/batch
// campaign): the perf grid plus the memory cells, which run at
// scale*memScale — exactly the matrix a default ifp-bench run evaluates.
// memScale < 1 is raised to MemScale (the ifp-bench -memscale default).
func NewReportPlan(ws []workloads.Workload, scale, memScale int) Plan {
	p := NewPlan(ws, scale)
	if memScale < 1 {
		memScale = MemScale
	}
	p.memScale, p.rows = memScale, newRowTable()
	return p
}

// NewMemPlan enumerates the Figure-12 memory cells only, at the given
// (already multiplied) scale: what RunMemSet measures. scale < 1 is
// raised to 1.
func NewMemPlan(ws []workloads.Workload, scale int) Plan {
	if scale < 1 {
		scale = 1
	}
	return Plan{ws: ws, scale: 1, memScale: scale, render: renderReport, rows: newRowTable()}
}

// Scale returns the perf-grid scale.
func (p Plan) Scale() int { return p.scale }

// MemScale returns the memory-cell scale multiplier (0 when the plan has
// no memory cells).
func (p Plan) MemScale() int { return p.memScale }

// HasMem reports whether the plan includes the Figure-12 memory cells.
func (p Plan) HasMem() bool { return p.memScale > 0 }

func (p Plan) perfCells() int { return len(p.ws) * len(p.cfgs) }

func (p Plan) memCells() int {
	if p.memScale == 0 {
		return 0
	}
	return len(p.ws) * len(memModes)
}

// NumCells returns the total cell count.
func (p Plan) NumCells() int { return p.perfCells() + p.memCells() }

// Meta returns cell i's identity. i must be in [0, NumCells()).
func (p Plan) Meta(i int) CellMeta {
	w, c, _, perf := p.cellSpec(i)
	if !perf {
		return CellMeta{Seq: i, Kind: CellMem, Workload: w.Name, Config: c.Mode.String()}
	}
	return CellMeta{Seq: i, Kind: CellPerf, Workload: w.Name, Config: c.String()}
}

// Key returns cell i's stable identity key. The key is a pure function
// of the cell's coordinates — not its position in this particular plan —
// so a shard tier hashing keys routes the same (workload, configuration)
// cell to the same backend across requests, keeping each backend's
// interner and result cache hot on a stable subset.
func (p Plan) Key(i int) string {
	m := p.Meta(i)
	return m.Kind + "|" + m.Workload + "|" + m.Config
}

// CellResult is one cell's observables: Perf for perf cells, Footprint
// for memory cells. JSON round-trips exactly (every field is integral),
// which is what keeps reports reassembled from a stream byte-identical.
type CellResult struct {
	Perf      *ModeResult `json:"perf,omitempty"`
	Footprint uint64      `json:"footprint,omitempty"`
	// failed is an ablated cell's run error, which the ablation report
	// renders as a FAILED row. Never serialized or memoized.
	failed error
}

// LookupCell serves cell i from the plan's memo store. ok=false means a
// miss (or no store attached) and the caller must ComputeCell. Cells are
// pure functions of the plan coordinates, which is what makes them
// memoizable: the hit path is zero-allocation, never touches rt.Pool,
// and returns the shared cached result (callers must not mutate it).
func (p Plan) LookupCell(i int) (CellResult, bool) {
	w, c, scale, perf := p.cellSpec(i)
	if !perf {
		fp, ok := lookupFootprint(p.memo, w, c.Mode, scale)
		return CellResult{Footprint: fp}, ok
	}
	m, ok := lookupOne(p.memo, w, c, scale)
	return CellResult{Perf: m}, ok
}

// ComputeCell executes cell i unconditionally — a memory cell from its
// Figure-12 row (memFootprint): one recorded Baseline run on the
// footprint-only path, replayed through each sibling's allocators, or
// computeFootprint alone when the plan computes no sibling — and, when
// the plan carries a store, publishes the result for the next identical
// cell. It never reads the store (ProbeCell, which counts nothing, tells
// a memory cell which siblings are memoized), so pairing LookupCell +
// ComputeCell counts exactly one miss. An ablated cell's run error is its
// result.
func (p Plan) ComputeCell(i int) (CellResult, error) {
	w, c, scale, perf := p.cellSpec(i)
	if !perf {
		fp, err := p.memFootprint(i, w, c.Mode, scale)
		return CellResult{Footprint: fp}, err
	}
	m, err := computeOne(p.memo, w, c, scale)
	if err != nil {
		if c.ablated() {
			return CellResult{failed: err}, nil
		}
		return CellResult{}, err
	}
	return CellResult{Perf: m}, nil
}

// CheckPayload checks that c has the shape cell seq's kind requires: a
// perf cell a perf payload and no footprint, a memory cell no perf
// payload and a footprint of whole pages, at least one (every run maps
// a page), so a relayed line that lost its footprint cannot render
// Figure 12 against a zero baseline.
func (p Plan) CheckPayload(seq int, c CellResult) error {
	switch {
	case seq < p.perfCells():
		if c.Perf == nil && c.failed == nil {
			return corruptCell(seq, "exp: perf cell %d missing perf result", seq)
		}
		if c.Footprint != 0 {
			return corruptCell(seq, "exp: perf cell %d carries a footprint payload", seq)
		}
	case c.Perf != nil:
		return corruptCell(seq, "exp: mem cell %d carries a perf payload", seq)
	case c.Footprint == 0 || c.Footprint%mem.PageSize != 0:
		return corruptCell(seq, "exp: mem cell %d footprint %d is not a positive number of %d-byte pages", seq, c.Footprint, mem.PageSize)
	}
	return nil
}

// verify checks that every configuration of a workload reproduces its
// first (baseline) configuration's checksum; a failed cell has none.
func (p Plan) verify(cells []CellResult) error {
	var errs []error
	for seq := 0; seq < p.perfCells(); seq++ {
		ci := seq % len(p.cfgs)
		base, m := cells[seq-ci].Perf, cells[seq].Perf
		if ci > 0 && m != nil && m.Checksum != base.Checksum {
			errs = append(errs, fmt.Errorf("%s: %s checksum %#x != baseline %#x",
				p.ws[seq/len(p.cfgs)].Name, p.cfgs[ci], m.Checksum, base.Checksum))
		}
	}
	return errors.Join(errs...)
}

// fold folds a complete cell set into the slices a serial run produces.
func (p Plan) fold(cells []CellResult) ([]Result, []MemResult) {
	results := make([]Result, len(p.ws))
	var mem []MemResult
	if p.HasMem() {
		mem = make([]MemResult, len(p.ws))
	}
	for i, w := range p.ws {
		results[i].Name, results[i].Suite = w.Name, w.Suite
		if mem != nil {
			mem[i].Name = w.Name
		}
	}
	pc := p.perfCells()
	for seq, c := range cells {
		if seq < pc {
			if ri := slices.Index(reportConfigs, p.cfgs[seq%len(p.cfgs)]); ri >= 0 {
				*results[seq/len(p.cfgs)].fields()[ri] = *c.Perf
			}
		} else {
			j := seq - pc
			*mem[j/len(memModes)].fields()[j%len(memModes)] = c.Footprint
		}
	}
	return results, mem
}

// Results folds a complete cell set into the slices a serial run
// produces, after verifying the cross-mode checksum contract: every
// instrumented configuration reproduces its workload's baseline checksum.
func (p Plan) Results(cells []CellResult) ([]Result, []MemResult, error) {
	if err := p.verify(cells); err != nil {
		return nil, nil, err
	}
	results, mem := p.fold(cells)
	return results, mem, nil
}

// Render verifies a complete cell set's checksums and renders it as the
// plan's report — byte-identical to a serial run over the same workloads
// and scales.
func (p Plan) Render(cells []CellResult) (string, error) {
	if err := p.verify(cells); err != nil {
		return "", err
	}
	return p.render(p, cells), nil
}

// cell returns workload wi's cell in configuration c, one of p's.
func (p Plan) cell(cells []CellResult, wi int, c Config) CellResult {
	return cells[wi*len(p.cfgs)+slices.Index(p.cfgs, c)]
}

// renderReport renders the report grid: the full Report (Table 4 +
// Figures 10–12) for plans with memory cells, PerfReport otherwise.
func renderReport(p Plan, cells []CellResult) string {
	results, mem := p.fold(cells)
	if p.HasMem() {
		return Report(results, mem)
	}
	return PerfReport(results)
}

// NewAssembly builds an empty assembly for the plan.
func (p Plan) NewAssembly() *Assembly { return NewAssembly[CellResult](p) }

// PerfReport renders the perf-grid-only report (Table 4 and Figures 10
// and 11): a NewPlan campaign's report.
func PerfReport(results []Result) string {
	return Table4(results) + "\n" + Fig10(results) + "\n" + Fig11(results)
}

// ChaosPlan is the cell-level view of the fault-injection campaign: the
// (scheme × fault × seed) grid.
type ChaosPlan struct {
	scale int
	seeds int
	memo  *memo.Store // nil = no memoization (WithMemo attaches one)
}

// NewChaosPlan enumerates the campaign at the given scale (scale < 1 is
// raised to 1; seeds per (scheme, fault) cell = ChaosSeedsPerCell*scale).
func NewChaosPlan(scale int) ChaosPlan {
	if scale < 1 {
		scale = 1
	}
	return ChaosPlan{scale: scale, seeds: ChaosSeedsPerCell * scale}
}

// Scale returns the plan's scale.
func (p ChaosPlan) Scale() int { return p.scale }

// NumCells returns the total cell count.
func (p ChaosPlan) NumCells() int { return len(chaos.Schemes) * len(chaos.Faults) * p.seeds }

// coords maps a sequence number to its (scheme, fault, seed).
func (p ChaosPlan) coords(i int) (chaos.Scheme, chaos.Fault, uint64) {
	nf := len(chaos.Faults)
	return chaos.Schemes[i/(nf*p.seeds)], chaos.Faults[i/p.seeds%nf], uint64(i % p.seeds)
}

// Meta returns cell i's identity: Workload carries the scheme, Config
// the fault.
func (p ChaosPlan) Meta(i int) CellMeta {
	s, f, _ := p.coords(i)
	return CellMeta{Seq: i, Kind: CellChaos, Workload: s.String(), Config: f.String()}
}

// Key returns cell i's stable identity key (scheme, fault, and seed).
func (p ChaosPlan) Key(i int) string {
	s, f, seed := p.coords(i)
	return fmt.Sprintf("%s|%s|%s|%d", CellChaos, s, f, seed)
}

// LookupCell serves chaos cell i from the plan's memo store (ok=false:
// miss, or no store). Zero-allocation, never touches rt.Pool.
func (p ChaosPlan) LookupCell(i int) (chaos.Outcome, bool) {
	if p.memo == nil {
		return chaos.Outcome{}, false
	}
	s, f, seed := p.coords(i)
	if v, ok := p.memo.GetKind(chaosCellDigest(s, f, seed), memo.KindChaos); ok {
		return *(v.(*chaos.Outcome)), true
	}
	return chaos.Outcome{}, false
}

// ComputeCell injects chaos cell i's fault unconditionally and, when the
// plan carries a store, publishes the outcome. It never reads the store,
// and never fails: chaos.Run classifies every outcome (panics included),
// so the error is always nil.
func (p ChaosPlan) ComputeCell(i int) (chaos.Outcome, error) {
	s, f, seed := p.coords(i)
	o := chaos.Run(s, f, seed)
	if p.memo != nil {
		enc, err := json.Marshal(&o)
		if err != nil {
			enc = nil
		}
		p.memo.Put(chaosCellDigest(s, f, seed), memo.KindChaos, &o, enc)
	}
	return o, nil
}

// CheckPayload checks that outcome o's own (scheme, fault, seed) are the
// plan's at seq, so no cell's outcome can land in another's slot.
func (p ChaosPlan) CheckPayload(seq int, o chaos.Outcome) error {
	if s, f, seed := p.coords(seq); o.Scheme != s || o.Fault != f || o.Seed != seed {
		return corruptCell(seq, "exp: chaos cell %d outcome coordinates (%s,%s,%d) do not match plan (%s,%s,%d)",
			seq, o.Scheme, o.Fault, o.Seed, s, f, seed)
	}
	return nil
}

// Render renders a complete outcome set as the campaign report —
// byte-identical to ChaosReport over the same scale.
func (p ChaosPlan) Render(outcomes []chaos.Outcome) (string, error) {
	return chaos.Report(outcomes), nil
}

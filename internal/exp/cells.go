package exp

// Cell-level decomposition of the evaluation campaigns.
//
// The batch serving tier (internal/server's /v1/batch, /v1/grid, and
// /v1/chaos endpoints, and internal/shard's fan-out front tier) needs the
// grid, memory, and chaos campaigns as flat lists of independent cells:
// every cell has a stable sequence number and identity key, runs in its
// own runtime, and can execute on any worker of any process — locally,
// on one backend, or scattered across a shard ring — in any order. A
// Plan is that enumeration; an Assembly folds streamed cell results back
// into the exact []Result/[]MemResult slices a serial run produces, so
// the reassembled report is byte-identical to what ifp-bench prints.
//
// The enumeration contract (relied on by clients reassembling streams):
//
//   - Perf cells come first: seq = wi*len(configs) + ci, where wi
//     indexes the plan's workload list and ci the configurations in
//     paper comparison order (baseline, subheap, wrapped,
//     subheap-nopromote, wrapped-nopromote). Plans built WithTemporal
//     append a sixth configuration, ifp-temporal, after the five — the
//     spatial five keep their relative order, and a plan without the
//     flag enumerates exactly as before the temporal axis existed.
//   - Memory cells (plans built with NewReportPlan) follow: seq =
//     perfCells + wi*len(memModes) + mi, with mi over baseline, subheap,
//     wrapped. Memory cells run at scale*memScale (Figure 12's larger
//     footprints).
//   - Chaos cells (ChaosPlan) use the ChaosCampaignN order: seq =
//     ((si*len(Faults))+fi)*seeds + seed.

import (
	"encoding/json"
	"errors"
	"fmt"

	"infat/internal/chaos"
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
// campaign: the §5.2 perf grid, optionally plus the Figure-12 memory
// cells. The zero value is empty; build with NewPlan or NewReportPlan.
type Plan struct {
	ws       []workloads.Workload
	scale    int
	memScale int         // 0 = no memory cells
	temporal bool        // append the ifp-temporal configuration per workload
	memo     *memo.Store // nil = no memoization (WithMemo attaches one)
}

// NewPlan enumerates the perf grid only (the /v1/grid campaign):
// len(ws) × 5 cells at the given scale. scale < 1 is raised to 1.
func NewPlan(ws []workloads.Workload, scale int) Plan {
	if scale < 1 {
		scale = 1
	}
	return Plan{ws: ws, scale: scale}
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
	p.memScale = memScale
	return p
}

// Workloads returns the plan's workload list (shared, not copied).
func (p Plan) Workloads() []workloads.Workload { return p.ws }

// Scale returns the perf-grid scale.
func (p Plan) Scale() int { return p.scale }

// MemScale returns the memory-cell scale multiplier (0 when the plan has
// no memory cells).
func (p Plan) MemScale() int { return p.memScale }

// HasMem reports whether the plan includes the Figure-12 memory cells.
func (p Plan) HasMem() bool { return p.memScale > 0 }

// WithTemporal returns a copy of the plan with the temporal axis toggled:
// when on, each workload gains a sixth perf cell running rt.IFPTemporal
// after the five spatial configurations. Default plans stay off, which is
// what keeps pre-temporal campaigns (and their streamed cells) enumerated
// and reported byte-identically.
func (p Plan) WithTemporal(on bool) Plan {
	p.temporal = on
	return p
}

// Temporal reports whether the plan includes the ifp-temporal cells.
func (p Plan) Temporal() bool { return p.temporal }

// configs returns the plan's per-workload configuration list.
func (p Plan) configs() []cellConfig {
	if p.temporal {
		return temporalConfigs
	}
	return cellConfigs
}

func (p Plan) perfCells() int { return len(p.ws) * len(p.configs()) }

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
	if pc := p.perfCells(); i < pc {
		cfgs := p.configs()
		wi, ci := i/len(cfgs), i%len(cfgs)
		return CellMeta{Seq: i, Kind: CellPerf, Workload: p.ws[wi].Name, Config: cfgs[ci].label}
	} else {
		j := i - pc
		wi, mi := j/len(memModes), j%len(memModes)
		return CellMeta{Seq: i, Kind: CellMem, Workload: p.ws[wi].Name, Config: memModes[mi].mode.String()}
	}
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
}

// RunCell executes cell i in its own pooled runtime. Cells are pure
// functions of the plan coordinates, so they can run on any process in
// any order — which is also what makes them memoizable: a plan built
// WithMemo consults the store first (LookupCell), and a hit returns the
// shared cached result without touching rt.Pool (callers must not
// mutate it).
func (p Plan) RunCell(i int) (CellResult, error) {
	if c, ok := p.LookupCell(i); ok {
		return c, nil
	}
	return p.ComputeCell(i)
}

// LookupCell serves cell i from the plan's memo store. ok=false means a
// miss (or no store attached) and the caller must ComputeCell. The hit
// path is zero-allocation and never touches rt.Pool. Callers that split
// lookup from compute themselves — the batch serving tier, which only
// takes a worker slot for real computation — use this pair instead of
// RunCell so misses are counted exactly once.
func (p Plan) LookupCell(i int) (CellResult, bool) {
	w, mode, noPromote, scale, perf := p.cellSpec(i)
	if !perf {
		fp, ok := lookupFootprint(p.memo, w, mode, scale)
		return CellResult{Footprint: fp}, ok
	}
	m, ok := LookupOne(p.memo, w, mode, noPromote, scale)
	return CellResult{Perf: m}, ok
}

// ComputeCell executes cell i unconditionally — a memory cell untimed,
// through computeFootprint — and, when the plan carries a store,
// publishes the result for the next identical cell. It never reads the
// store, so pairing LookupCell + ComputeCell counts exactly one miss.
func (p Plan) ComputeCell(i int) (CellResult, error) {
	w, mode, noPromote, scale, perf := p.cellSpec(i)
	if !perf {
		fp, err := computeFootprint(p.memo, w, mode, scale)
		return CellResult{Footprint: fp}, err
	}
	m, err := ComputeOne(p.memo, w, mode, noPromote, scale)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Perf: m}, nil
}

// Assembly folds cell results back into the slices a serial run
// produces. Add is safe for concurrent use on distinct sequence numbers
// (each writes a disjoint slot), which lets a streaming consumer add
// cells as they arrive in any order.
type Assembly struct {
	p       Plan
	results []Result
	mem     []MemResult
	have    []bool
}

// NewAssembly builds an empty assembly for the plan.
func (p Plan) NewAssembly() *Assembly {
	a := &Assembly{p: p, results: make([]Result, len(p.ws)), have: make([]bool, p.NumCells())}
	for i, w := range p.ws {
		a.results[i].Name, a.results[i].Suite = w.Name, w.Suite
	}
	if p.HasMem() {
		a.mem = make([]MemResult, len(p.ws))
		for i, w := range p.ws {
			a.mem[i].Name = w.Name
		}
	}
	return a
}

// Add records cell seq's result. It rejects out-of-range sequence
// numbers (ErrCorruptCell), duplicates (ErrDuplicateCell), and results
// missing the payload their kind requires (ErrCorruptCell).
func (a *Assembly) Add(seq int, c CellResult) error {
	if seq < 0 || seq >= len(a.have) {
		return corruptCell(seq, "exp: cell seq %d out of range [0, %d)", seq, len(a.have))
	}
	if a.have[seq] {
		return duplicateCell(seq, "exp: duplicate cell seq %d", seq)
	}
	if pc := a.p.perfCells(); seq < pc {
		if c.Perf == nil {
			return corruptCell(seq, "exp: perf cell %d missing perf result", seq)
		}
		cfgs := a.p.configs()
		wi, ci := seq/len(cfgs), seq%len(cfgs)
		*cfgs[ci].dst(&a.results[wi]) = *c.Perf
	} else {
		j := seq - pc
		wi, mi := j/len(memModes), j%len(memModes)
		*memModes[mi].dst(&a.mem[wi]) = c.Footprint
	}
	a.have[seq] = true
	return nil
}

// AddChecked is Add behind CheckCell: a streaming consumer fed by an
// untrusted (or faulty) backend uses it so an alien or mangled cell is a
// typed ErrCorruptCell, never a wrong slot written blindly.
func (a *Assembly) AddChecked(m CellMeta, c CellResult) error {
	if err := CheckCell(a.p, m, &c, nil); err != nil {
		return err
	}
	return a.Add(m.Seq, c)
}

// CellPlan is what checking a streamed cell needs of its campaign: the
// cell count and each cell's identity. Plan and ChaosPlan implement it.
type CellPlan interface {
	NumCells() int
	Meta(i int) CellMeta
}

// CheckMeta checks a streamed cell's identity: m.Seq lies in the plan and
// m's coordinates are the plan's own at that seq. It is all an error cell,
// which carries no payload, is checked against.
func CheckMeta(p CellPlan, m CellMeta) error {
	if n := p.NumCells(); m.Seq < 0 || m.Seq >= n {
		return corruptCell(m.Seq, "exp: cell seq %d out of range [0, %d)", m.Seq, n)
	}
	if want := p.Meta(m.Seq); m != want {
		return corruptCell(m.Seq, "exp: cell %d identity %s|%s|%s does not match plan %s|%s|%s",
			m.Seq, m.Kind, m.Workload, m.Config, want.Kind, want.Workload, want.Config)
	}
	return nil
}

// CheckCell is the one contract a streamed cell meets before anything
// uses it — the shard relay before it forwards a backend's line, and both
// checked assemblies before they fold a payload in — so a cell the relay
// passes is one the client's assembly accepts. Past CheckMeta, the payload
// must have exactly the shape the cell's kind requires: a perf cell a
// result with a perf payload and no footprint, a memory cell a result
// with no perf payload, a chaos cell no result and an outcome whose own
// (scheme, fault, seed) is the plan's at that seq. Violations wrap
// ErrCorruptCell.
func CheckCell(p CellPlan, m CellMeta, res *CellResult, out *chaos.Outcome) error {
	if err := CheckMeta(p, m); err != nil {
		return err
	}
	switch m.Kind {
	case CellPerf:
		if res == nil || res.Perf == nil || out != nil {
			return corruptCell(m.Seq, "exp: perf cell %d missing perf result", m.Seq)
		}
		if res.Footprint != 0 {
			return corruptCell(m.Seq, "exp: perf cell %d carries a footprint payload", m.Seq)
		}
	case CellMem:
		if res == nil || out != nil {
			return corruptCell(m.Seq, "exp: mem cell %d missing result", m.Seq)
		}
		if res.Perf != nil {
			return corruptCell(m.Seq, "exp: mem cell %d carries a perf payload", m.Seq)
		}
	case CellChaos:
		cp, ok := p.(ChaosPlan)
		if !ok || out == nil || res != nil {
			return corruptCell(m.Seq, "exp: chaos cell %d missing outcome", m.Seq)
		}
		if s, f, seed := cp.coords(m.Seq); out.Scheme != s || out.Fault != f || out.Seed != seed {
			return corruptCell(m.Seq, "exp: chaos cell %d outcome coordinates (%s,%s,%d) do not match plan (%s,%s,%d)",
				m.Seq, out.Scheme, out.Fault, out.Seed, s, f, seed)
		}
	}
	return nil
}

// Missing lists the sequence numbers not yet added, in order.
func (a *Assembly) Missing() []int {
	var out []int
	for i, ok := range a.have {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// Results returns the assembled slices after verifying completeness and
// the cross-mode checksum contract — the same verification RunSet
// applies, producing the same error text.
func (a *Assembly) Results() ([]Result, []MemResult, error) {
	if missing := a.Missing(); len(missing) > 0 {
		return nil, nil, fmt.Errorf("exp: assembly incomplete: %d of %d cells missing (first missing seq %d)",
			len(missing), len(a.have), missing[0])
	}
	var errs []error
	cfgs := a.p.configs()
	for i := range a.results {
		if err := a.results[i].verifyChecksumsFor(cfgs); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return a.results, a.mem, nil
}

// Report renders the assembled campaign: the full Report (Table 4 +
// Figures 10–12) for plans with memory cells, PerfReport otherwise —
// byte-identical to a serial run over the same workloads and scales.
// Plans built WithTemporal append the temporal-axis section after the
// spatial report, leaving the spatial portion's bytes unchanged.
func (a *Assembly) Report() (string, error) {
	results, mem, err := a.Results()
	if err != nil {
		return "", err
	}
	var rep string
	if a.p.HasMem() {
		rep = Report(results, mem)
	} else {
		rep = PerfReport(results)
	}
	if a.p.temporal {
		rep += "\n" + TemporalSection(results)
	}
	return rep, nil
}

// PerfReport renders the perf-grid-only report (Table 4 and Figures 10
// and 11) — what a /v1/grid stream reassembles to.
func PerfReport(results []Result) string {
	return Table4(results) + "\n" + Fig10(results) + "\n" + Fig11(results)
}

// ChaosPlan is the cell-level view of the fault-injection campaign: the
// (scheme × fault × seed) grid in ChaosCampaignN order.
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

// coords maps a sequence number to its (scheme, fault, seed) — the exact
// ChaosCampaignN indexing, so assembled outcome slices match a serial
// campaign element-for-element.
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

// RunCell executes cell i. chaos.Run classifies every outcome (panics
// included), so cells never fail at the harness level. Plans built
// WithMemo replay hits from the store instead of re-injecting the fault.
func (p ChaosPlan) RunCell(i int) chaos.Outcome {
	if o, ok := p.LookupCell(i); ok {
		return o
	}
	return p.ComputeCell(i)
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
// plan carries a store, publishes the outcome. It never reads the store.
func (p ChaosPlan) ComputeCell(i int) chaos.Outcome {
	s, f, seed := p.coords(i)
	o := chaos.Run(s, f, seed)
	if p.memo != nil {
		enc, err := json.Marshal(&o)
		if err != nil {
			enc = nil
		}
		p.memo.Put(chaosCellDigest(s, f, seed), memo.KindChaos, &o, enc)
	}
	return o
}

// ChaosAssembly folds streamed chaos outcomes back into campaign order.
// Add is safe for concurrent use on distinct sequence numbers.
type ChaosAssembly struct {
	p        ChaosPlan
	outcomes []chaos.Outcome
	have     []bool
}

// NewAssembly builds an empty assembly for the plan.
func (p ChaosPlan) NewAssembly() *ChaosAssembly {
	n := p.NumCells()
	return &ChaosAssembly{p: p, outcomes: make([]chaos.Outcome, n), have: make([]bool, n)}
}

// Add records cell seq's outcome, rejecting out-of-range
// (ErrCorruptCell) and duplicate (ErrDuplicateCell) sequence numbers.
func (a *ChaosAssembly) Add(seq int, o chaos.Outcome) error {
	if seq < 0 || seq >= len(a.have) {
		return corruptCell(seq, "exp: chaos cell seq %d out of range [0, %d)", seq, len(a.have))
	}
	if a.have[seq] {
		return duplicateCell(seq, "exp: duplicate chaos cell seq %d", seq)
	}
	a.outcomes[seq] = o
	a.have[seq] = true
	return nil
}

// AddChecked is Add behind CheckCell: a hostile or corrupted backend
// cannot smuggle a different cell's outcome into the slot.
func (a *ChaosAssembly) AddChecked(m CellMeta, o chaos.Outcome) error {
	if err := CheckCell(a.p, m, nil, &o); err != nil {
		return err
	}
	return a.Add(m.Seq, o)
}

// Missing lists the sequence numbers not yet added, in order.
func (a *ChaosAssembly) Missing() []int {
	var out []int
	for i, ok := range a.have {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// Report renders the assembled campaign report and its internal-outcome
// count — byte-identical to ChaosReport over the same scale.
func (a *ChaosAssembly) Report() (string, int, error) {
	if missing := a.Missing(); len(missing) > 0 {
		return "", 0, fmt.Errorf("exp: chaos assembly incomplete: %d of %d cells missing (first missing seq %d)",
			len(missing), len(a.have), missing[0])
	}
	return chaos.Report(a.outcomes), chaos.Summarize(a.outcomes).Internal, nil
}

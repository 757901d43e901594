package exp

// Cell memoization: every campaign cell is a pure, byte-deterministic
// function of its coordinates — (workload, mode, noPromote, scale) under
// the machine cost model for perf cells, (workload, mode, scale) for
// memory cells, (scheme, fault, seed) for chaos cells; the assembly- and
// dispatch-equivalence gates pin exactly that — so a plan carrying a
// memo.Store (WithMemo) consults it before checking a runtime out of
// rt.Pool and replays hits instead of recomputing.
//
// The hit path is zero-allocation and never touches the pool: digest
// composition runs in a stack buffer, the store returns the shared
// immutable *ModeResult (or the footprint), and RunCell hands it out
// without copying. Callers must treat memoized results as read-only
// (every existing consumer already copies on fold or marshals to JSON).
// A plan without a store — the default — behaves byte-identically to
// the pre-memo harness.

import (
	"encoding/binary"
	"encoding/json"
	"errors"

	"infat/internal/chaos"
	"infat/internal/machine"
	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/workloads"
)

func init() {
	memo.RegisterKind(memo.KindCell, memo.Codec{Decode: func(p []byte) (any, error) {
		var m ModeResult
		if err := json.Unmarshal(p, &m); err != nil {
			return nil, err
		}
		return &m, nil
	}})
	memo.RegisterKind(memo.KindChaos, memo.Codec{Decode: func(p []byte) (any, error) {
		var o chaos.Outcome
		if err := json.Unmarshal(p, &o); err != nil {
			return nil, err
		}
		return &o, nil
	}})
	memo.RegisterKind(memo.KindFootprint, memo.Codec{Decode: func(p []byte) (any, error) {
		if len(p) != 8 {
			return nil, errors.New("exp: footprint payload is not 8 bytes")
		}
		return binary.LittleEndian.Uint64(p), nil
	}})
}

// cellDigestCost is the canonical grid-cell key: the workload's
// content-address (name, suite, kernel version), the run mode, the
// promote toggle, the effective scale, and every field of the machine
// cost model (a recalibration changes cycle counts, so it must change
// the key). The cost model is passed explicitly so tests can pin the
// composition against a known calibration.
func cellDigestCost(w workloads.Workload, mode rt.Mode, noPromote bool, scale int, cost machine.CostModel) memo.Digest {
	var g memo.Digester
	g.Init(memo.DomainCell)
	g.Raw(memo.WorkloadDigest(w.Name, w.Suite, workloads.Version))
	g.Str(mode.String())
	g.Bool(noPromote)
	g.U64(uint64(scale))
	g.U64(cost.MissPenalty)
	g.U64(cost.PromoteBase)
	g.U64(cost.DivCycles)
	g.U64(cost.SlotDivCycles)
	g.U64(cost.MacCycles)
	g.U64(cost.GenCheckCycles)
	return g.Sum()
}

// CellDigest keys one grid cell under the standard calibration
// (machine.DefaultCost) — what runOne executes.
func CellDigest(w workloads.Workload, mode rt.Mode, noPromote bool, scale int) memo.Digest {
	return cellDigestCost(w, mode, noPromote, scale, machine.DefaultCost)
}

// chaosCellDigest keys one fault-injection cell.
func chaosCellDigest(s chaos.Scheme, f chaos.Fault, seed uint64) memo.Digest {
	return memo.ChaosDigest(s.String(), f.String(), seed, chaos.Version)
}

// LookupOne serves one (workload, mode, noPromote, scale) cell from the
// store (ok=false: miss, or nil store). The returned *ModeResult is the
// shared cached value — read-only. Zero-allocation, never touches
// rt.Pool. Callers that gate real computation behind admission control
// (the unary /v1/workload endpoint) pair this with ComputeOne.
func LookupOne(s *memo.Store, w workloads.Workload, mode rt.Mode, noPromote bool, scale int) (*ModeResult, bool) {
	if s == nil {
		return nil, false
	}
	if v, ok := s.GetKind(CellDigest(w, mode, noPromote, scale), memo.KindCell); ok {
		return v.(*ModeResult), true
	}
	return nil, false
}

// ComputeOne executes the cell unconditionally via runOne and, when s is
// non-nil, publishes the result for the next identical cell — wherever
// it runs (batch stream, unary endpoint, bench grid). It never reads the
// store, so a LookupOne + ComputeOne pair counts exactly one miss.
func ComputeOne(s *memo.Store, w workloads.Workload, mode rt.Mode, noPromote bool, scale int) (*ModeResult, error) {
	m, err := runOne(w, mode, noPromote, scale, false)
	if err != nil {
		// Errors are never memoized: a failed cell re-runs on every
		// request, so a transient failure cannot poison the store.
		return nil, err
	}
	if s != nil {
		enc, encErr := json.Marshal(&m)
		if encErr != nil {
			enc = nil // memory-only entry; snapshots just skip it
		}
		s.Put(CellDigest(w, mode, noPromote, scale), memo.KindCell, &m, enc)
	}
	return &m, nil
}

// RunOneMemo is LookupOne-else-ComputeOne in one call; the bool reports
// whether the result was replayed from the store.
func RunOneMemo(s *memo.Store, w workloads.Workload, mode rt.Mode, noPromote bool, scale int) (*ModeResult, bool, error) {
	if m, ok := LookupOne(s, w, mode, noPromote, scale); ok {
		return m, true, nil
	}
	m, err := ComputeOne(s, w, mode, noPromote, scale)
	return m, false, err
}

// footprintDigest keys one Figure-12 memory cell in the footprint domain
// (memo.FootprintDigest): workload identity, mode, and effective scale.
// It never equals a perf cell's digest, so an untimed memory-cell result
// cannot be served as a perf cell or a /v1/workload answer.
func footprintDigest(w workloads.Workload, mode rt.Mode, scale int) memo.Digest {
	return memo.FootprintDigest(memo.WorkloadDigest(w.Name, w.Suite, workloads.Version), mode.String(), uint64(scale))
}

// lookupFootprint serves one memory cell from the store (ok=false: miss,
// or nil store) with exactly one lookup. Zero-allocation, never touches
// rt.Pool.
func lookupFootprint(s *memo.Store, w workloads.Workload, mode rt.Mode, scale int) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	v, ok := s.GetKind(footprintDigest(w, mode, scale), memo.KindFootprint)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// computeFootprint is the one footprint function: it runs a memory cell
// (w in mode at the already multiplied scale) on an untimed machine —
// Figure 12 keeps only the footprint, so the L1D model's cycles would be
// thrown away — and, when s is non-nil, publishes the footprint. It
// never reads the store.
func computeFootprint(s *memo.Store, w workloads.Workload, mode rt.Mode, scale int) (uint64, error) {
	m, err := runOne(w, mode, false, scale, true)
	if err != nil {
		return 0, err
	}
	if s != nil {
		s.Put(footprintDigest(w, mode, scale), memo.KindFootprint, m.Footprint,
			binary.LittleEndian.AppendUint64(nil, m.Footprint))
	}
	return m.Footprint, nil
}

// WithMemo returns a copy of the plan whose RunCell consults the store
// (nil reverts to plain execution). The store is not part of the plan's
// enumeration identity: two plans differing only in store agree on every
// seq, key, and digest.
func (p Plan) WithMemo(s *memo.Store) Plan {
	p.memo = s
	return p
}

// Memo returns the plan's store (nil when memoization is off).
func (p Plan) Memo() *memo.Store { return p.memo }

// cellSpec resolves cell i to the runOne coordinates it executes:
// (workload, mode, noPromote, effective scale), plus whether it is a
// perf cell (false = memory cell, whose result is the footprint).
func (p Plan) cellSpec(i int) (w workloads.Workload, mode rt.Mode, noPromote bool, scale int, perf bool) {
	if pc := p.perfCells(); i < pc {
		cfgs := p.configs()
		wi, ci := i/len(cfgs), i%len(cfgs)
		cfg := cfgs[ci]
		return p.ws[wi], cfg.mode, cfg.noPromote, p.scale, true
	}
	j := i - p.perfCells()
	wi, mi := j/len(memModes), j%len(memModes)
	return p.ws[wi], memModes[mi].mode, false, p.scale * p.memScale, false
}

// CellDigest returns cell i's canonical memo key. Like Key, it is a pure
// function of the cell's coordinates, not of this particular plan. Memory
// cells are keyed in the footprint domain, so a memory cell never shares
// a digest with a perf cell, even at the same effective coordinates: it
// runs untimed and keeps only the footprint.
func (p Plan) CellDigest(i int) memo.Digest {
	w, mode, noPromote, scale, perf := p.cellSpec(i)
	if !perf {
		return footprintDigest(w, mode, scale)
	}
	return CellDigest(w, mode, noPromote, scale)
}

// ProbeCell reports whether cell i would be served from the memo store,
// with no counter effect — for warm-cell headers and diagnostics.
func (p Plan) ProbeCell(i int) bool {
	return p.memo != nil && p.memo.Peek(p.CellDigest(i))
}

// WithMemo returns a copy of the chaos plan whose RunCell consults the
// store (nil reverts to plain execution).
func (p ChaosPlan) WithMemo(s *memo.Store) ChaosPlan {
	p.memo = s
	return p
}

// Memo returns the plan's store (nil when memoization is off).
func (p ChaosPlan) Memo() *memo.Store { return p.memo }

// CellDigest returns chaos cell i's canonical memo key.
func (p ChaosPlan) CellDigest(i int) memo.Digest {
	s, f, seed := p.coords(i)
	return chaosCellDigest(s, f, seed)
}

// ProbeCell reports whether chaos cell i would be served from the memo
// store, with no counter effect.
func (p ChaosPlan) ProbeCell(i int) bool {
	return p.memo != nil && p.memo.Peek(p.CellDigest(i))
}

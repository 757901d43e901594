package exp

// Cell memoization: every campaign cell is a pure, byte-deterministic
// function of its coordinates — (workload, Config, scale) for perf
// cells, the Config carrying the cost model, (workload, mode, scale) for
// memory cells, (scheme, fault, seed) for chaos cells; the assembly- and
// dispatch-equivalence gates pin exactly that — so a plan carrying a
// memo.Store (WithMemo) consults it before checking a runtime out of
// rt.Pool and replays hits instead of recomputing.
//
// The hit path is zero-allocation and never touches the pool: digest
// composition runs in a stack buffer, the store returns the shared
// immutable *ModeResult (or the footprint), and LookupCell hands it out
// without copying. Callers must treat memoized results as read-only
// (every existing consumer already copies on fold or marshals to JSON).
// A plan without a store — the default — behaves byte-identically to
// the pre-memo harness.

import (
	"encoding/binary"
	"encoding/json"
	"errors"

	"infat/internal/chaos"
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

// digest is the canonical perf-cell key: the workload's content-address
// (name, suite, kernel version), the run mode, the promote toggle, the
// effective scale, and every field of the machine cost model (a
// recalibration changes cycle counts, so it must change the key). The
// ablation knobs are folded in only when one is set, so every default
// cell keeps the digest it had before they existed.
func (c Config) digest(w workloads.Workload, scale int) memo.Digest {
	var g memo.Digester
	g.Init(memo.DomainCell)
	g.Raw(memo.WorkloadDigest(w.Name, w.Suite, workloads.Version))
	g.Str(c.Mode.String())
	g.Bool(c.NoPromote)
	g.U64(uint64(scale))
	g.U64(c.Cost.MissPenalty)
	g.U64(c.Cost.PromoteBase)
	g.U64(c.Cost.DivCycles)
	g.U64(c.Cost.SlotDivCycles)
	g.U64(c.Cost.MacCycles)
	g.U64(c.Cost.GenCheckCycles)
	if c.ablated() {
		g.Str("ablation")
		g.Bool(c.NoNarrow)
		g.Bool(c.ForceGlobalTable)
		g.Bool(c.ExplicitChecks)
	}
	return g.Sum()
}

// chaosCellDigest keys one fault-injection cell.
func chaosCellDigest(s chaos.Scheme, f chaos.Fault, seed uint64) memo.Digest {
	return memo.ChaosDigest(s.String(), f.String(), seed, chaos.Version)
}

// lookupOne serves one (workload, configuration, scale) perf cell from
// the store (ok=false: miss, or nil store). The returned *ModeResult is
// the shared cached value — read-only. Zero-allocation, never touches
// rt.Pool.
func lookupOne(s *memo.Store, w workloads.Workload, c Config, scale int) (*ModeResult, bool) {
	if s == nil {
		return nil, false
	}
	if v, ok := s.GetKind(c.digest(w, scale), memo.KindCell); ok {
		return v.(*ModeResult), true
	}
	return nil, false
}

// computeOne executes the cell unconditionally via runOne and, when s is
// non-nil, publishes the result for the next identical cell — wherever
// it runs (batch stream, bench section). It never reads the store, so a
// lookupOne + computeOne pair counts exactly one miss.
func computeOne(s *memo.Store, w workloads.Workload, c Config, scale int) (*ModeResult, error) {
	m, err := runOne(w, c, scale, false)
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
		s.Put(c.digest(w, scale), memo.KindCell, &m, enc)
	}
	return &m, nil
}

// footprintDigest keys one Figure-12 memory cell in the footprint domain
// (memo.FootprintDigest): workload identity, mode, and effective scale.
// It never equals a perf cell's digest, so a footprint-only memory-cell
// result cannot be served as a perf cell.
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
// (w in mode at the already multiplied scale) on the footprint-only path
// — Figure 12 keeps only the footprint, which depends only on the pages
// the run touches, so the L1D model and the access helpers' promotes,
// MAC checks, narrowing and tag arithmetic would be thrown away — and,
// when s is non-nil, publishes the footprint. It never reads the store.
func computeFootprint(s *memo.Store, w workloads.Workload, mode rt.Mode, scale int) (uint64, error) {
	m, err := runOne(w, ModeConfig(mode, false), scale, true)
	if err != nil {
		return 0, err
	}
	publishFootprint(s, w, mode, scale, m.Footprint)
	return m.Footprint, nil
}

// publishFootprint publishes one memory cell's footprint to s (nil: no
// store).
func publishFootprint(s *memo.Store, w workloads.Workload, mode rt.Mode, scale int, fp uint64) {
	if s != nil {
		s.Put(footprintDigest(w, mode, scale), memo.KindFootprint, fp, binary.LittleEndian.AppendUint64(nil, fp))
	}
}

// WithMemo returns a copy of the plan whose LookupCell serves from, and
// ComputeCell publishes to, the store (nil reverts to plain execution). The store is not part of the plan's
// enumeration identity: two plans differing only in store agree on every
// seq, key, and digest.
func (p Plan) WithMemo(s *memo.Store) Plan {
	p.memo = s
	return p
}

// cellSpec resolves cell i to the runOne coordinates it executes:
// (workload, configuration, effective scale), plus whether it is a perf
// cell (false = memory cell, whose result is the footprint).
func (p Plan) cellSpec(i int) (w workloads.Workload, c Config, scale int, perf bool) {
	if pc := p.perfCells(); i < pc {
		return p.ws[i/len(p.cfgs)], p.cfgs[i%len(p.cfgs)], p.scale, true
	}
	j := i - p.perfCells()
	return p.ws[j/len(memModes)], ModeConfig(memModes[j%len(memModes)], false), p.scale * p.memScale, false
}

// CellDigest returns cell i's canonical memo key. Like Key, it is a pure
// function of the cell's coordinates, not of this particular plan. Memory
// cells are keyed in the footprint domain, so a memory cell never shares
// a digest with a perf cell, even at the same effective coordinates: it
// runs on the footprint-only path and keeps only the footprint.
func (p Plan) CellDigest(i int) memo.Digest {
	w, c, scale, perf := p.cellSpec(i)
	if !perf {
		return footprintDigest(w, c.Mode, scale)
	}
	return c.digest(w, scale)
}

// CellScale returns cell i's effective scale: the plan's scale for a perf
// cell, scale×memScale for a memory cell.
func (p Plan) CellScale(i int) int {
	_, _, scale, _ := p.cellSpec(i)
	return scale
}

// ProbeCell reports whether cell i would be served from the memo store,
// with no counter effect — for warm-cell headers and diagnostics.
func (p Plan) ProbeCell(i int) bool {
	return p.memo != nil && p.memo.Peek(p.CellDigest(i))
}

// WithMemo returns a copy of the chaos plan whose LookupCell serves from,
// and ComputeCell publishes to, the store (nil reverts to plain
// execution).
func (p ChaosPlan) WithMemo(s *memo.Store) ChaosPlan {
	p.memo = s
	return p
}

// CellDigest returns chaos cell i's canonical memo key.
func (p ChaosPlan) CellDigest(i int) memo.Digest {
	s, f, seed := p.coords(i)
	return chaosCellDigest(s, f, seed)
}

// CellScale returns 1: every chaos cell runs one fault injection, at any
// plan scale.
func (p ChaosPlan) CellScale(int) int { return 1 }

// ProbeCell reports whether chaos cell i would be served from the memo
// store, with no counter effect.
func (p ChaosPlan) ProbeCell(i int) bool {
	return p.memo != nil && p.memo.Peek(p.CellDigest(i))
}

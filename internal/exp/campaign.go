package exp

// The campaign contract every evaluation campaign implements, and the
// one assembly and one runner written against it.

import (
	"errors"
	"fmt"

	"infat/internal/memo"
	"infat/internal/pool"
)

// CellPlan is a campaign's enumeration: the cell count, each cell's
// identity, and its stable routing key. It is all an error cell, which
// carries no payload, is checked against.
type CellPlan interface {
	NumCells() int
	Meta(i int) CellMeta
	Key(i int) string
}

// Campaign is one evaluation campaign as a flat list of independent
// cells, each yielding a payload of type C. Plan (C = CellResult) and
// ChaosPlan (C = chaos.Outcome) implement it. The runner, the assembly,
// the serving tier's stream, the shard's relay and the client's
// reassembly are each written once against it, so a new campaign kind is
// one more implementation.
type Campaign[C any] interface {
	CellPlan
	// CellDigest is cell i's canonical memo key.
	CellDigest(i int) memo.Digest
	// CellScale is cell i's effective scale, the cost order a scheduler
	// starts cells in: the perf scale for perf cells, scale×mem_scale for
	// memory cells, 1 for chaos cells.
	CellScale(i int) int
	// ProbeCell reports whether cell i would be served from the memo
	// store, with no counter effect.
	ProbeCell(i int) bool
	// LookupCell serves cell i from the memo store (ok=false: miss, or
	// no store). It counts exactly one hit or miss.
	LookupCell(i int) (c C, ok bool)
	// ComputeCell runs cell i unconditionally and publishes the result
	// to the memo store, if any. It never reads the store.
	ComputeCell(i int) (C, error)
	// CheckPayload checks that c has the shape cell seq requires; seq is
	// in range. Violations wrap ErrCorruptCell.
	CheckPayload(seq int, c C) error
	// Render renders a complete set of cells, in seq order, as the
	// campaign's report.
	Render(cells []C) (string, error)
}

// CheckMeta checks a streamed cell's identity: m.Seq lies in the plan and
// m's coordinates are the plan's own at that seq. Together with the
// campaign's CheckPayload it is the one contract a streamed cell meets
// before anything uses it — the shard relay before it forwards a
// backend's line, and the checked assembly before it folds a payload in
// — so a cell the relay passes is one the client's assembly accepts.
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

// CampaignAssembly folds a campaign's cells back into seq order. Add is
// safe for concurrent use on distinct sequence numbers (each writes a
// disjoint slot), which lets a streaming consumer add cells as they
// arrive in any order.
type CampaignAssembly[C any] struct {
	c     Campaign[C]
	cells []C
	have  []bool
}

// Assembly is the grid campaign's assembly (Plan.NewAssembly).
type Assembly = CampaignAssembly[CellResult]

// NewAssembly builds an empty assembly for the campaign.
func NewAssembly[C any](c Campaign[C]) *CampaignAssembly[C] {
	n := c.NumCells()
	return &CampaignAssembly[C]{c: c, cells: make([]C, n), have: make([]bool, n)}
}

// Add records cell seq's payload. It rejects out-of-range sequence
// numbers (ErrCorruptCell), duplicates (ErrDuplicateCell), and payloads
// of the wrong shape (ErrCorruptCell).
func (a *CampaignAssembly[C]) Add(seq int, v C) error {
	if seq < 0 || seq >= len(a.have) {
		return corruptCell(seq, "exp: cell seq %d out of range [0, %d)", seq, len(a.have))
	}
	if a.have[seq] {
		return duplicateCell(seq, "exp: duplicate cell seq %d", seq)
	}
	if err := a.c.CheckPayload(seq, v); err != nil {
		return err
	}
	a.cells[seq] = v
	a.have[seq] = true
	return nil
}

// AddChecked is Add behind CheckCell: a streaming consumer fed by an
// untrusted (or faulty) backend uses it so an alien or mangled cell is a
// typed ErrCorruptCell, never a wrong slot written blindly.
func (a *CampaignAssembly[C]) AddChecked(m CellMeta, v C) error {
	if err := CheckMeta(a.c, m); err != nil {
		return err
	}
	return a.Add(m.Seq, v)
}

// Missing lists the sequence numbers not yet added, in order.
func (a *CampaignAssembly[C]) Missing() []int {
	var out []int
	for i, ok := range a.have {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// Cells returns every cell in seq order, or an error naming the first
// missing one.
func (a *CampaignAssembly[C]) Cells() ([]C, error) {
	if missing := a.Missing(); len(missing) > 0 {
		return nil, fmt.Errorf("exp: assembly incomplete: %d of %d cells missing (first missing seq %d)",
			len(missing), len(a.have), missing[0])
	}
	return a.cells, nil
}

// Report renders the assembled campaign through the campaign's own
// Render — byte-identical to a serial run of the same campaign.
func (a *CampaignAssembly[C]) Report() (string, error) {
	cells, err := a.Cells()
	if err != nil {
		return "", err
	}
	return a.c.Render(cells)
}

// RunCampaign runs every cell of c over at most workers goroutines
// (workers <= 0 selects GOMAXPROCS, 1 is fully serial): each cell is
// served from the campaign's memo store when warm and computed
// otherwise, then folded through an assembly. Cells land in pre-indexed
// slots, so the result is identical at any worker count. A failed cell
// does not stop the rest; every cell error is joined in seq order. A
// plan starts its memory cells mode by mode (Plan.dispatchOrder), so
// parallel workers record different Figure-12 rows instead of waiting
// on one.
func RunCampaign[C any](c Campaign[C], workers int) ([]C, error) {
	a := NewAssembly(c)
	order := make([]int, c.NumCells())
	for i := range order {
		order[i] = i
	}
	if p, ok := any(c).(Plan); ok {
		order = p.dispatchOrder()
	}
	errs := make([]error, len(order))
	pool.Map(workers, len(order), func(k int) error {
		i := order[k]
		v, ok := c.LookupCell(i)
		if !ok {
			var err error
			if v, err = c.ComputeCell(i); err != nil {
				errs[i] = err
				return nil
			}
		}
		errs[i] = a.Add(i, v)
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return a.Cells()
}

// RunReport runs c through RunCampaign and renders its report.
func RunReport[C any](c Campaign[C], workers int) (string, error) {
	cells, err := RunCampaign(c, workers)
	if err != nil {
		return "", err
	}
	return c.Render(cells)
}

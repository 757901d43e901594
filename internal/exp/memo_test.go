package exp

import (
	"fmt"
	"runtime"
	"testing"

	"infat/internal/chaos"
	"infat/internal/machine"
	"infat/internal/memo"
	"infat/internal/rt"
	"infat/internal/workloads"
)

// CellDigest keys one default-knob perf cell, what lookupOne and
// computeOne key on; cellDigestCost keys it under an explicit cost model,
// so tests can pin the composition against a known calibration.
func CellDigest(w workloads.Workload, mode rt.Mode, noPromote bool, scale int) memo.Digest {
	return ModeConfig(mode, noPromote).digest(w, scale)
}

func cellDigestCost(w workloads.Workload, mode rt.Mode, noPromote bool, scale int, cost machine.CostModel) memo.Digest {
	return Config{Mode: mode, NoPromote: noPromote, Cost: cost}.digest(w, scale)
}

func costWithMissPenalty(v uint64) machine.CostModel {
	c := machine.DefaultCost
	c.MissPenalty = v
	return c
}

// runPlanReport runs every cell of the plan over the given worker count
// through RunCampaign and renders the report — the exact path ifp-bench
// -memo uses.
func runPlanReport(t *testing.T, p Plan, workers int) string {
	t.Helper()
	cells, err := RunCampaign(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Render(cells)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func runChaosReport(t *testing.T, p ChaosPlan, workers int) string {
	t.Helper()
	outcomes, err := RunCampaign(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	if n := chaos.Summarize(outcomes).Internal; n != 0 {
		t.Fatalf("%d internal outcomes", n)
	}
	rep, err := p.Render(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestMemoEquivalence is the correctness contract of the whole memo
// subsystem: for every plan axis, the fresh report, the cold memoized
// report (misses populating the store), and the warm memoized report
// (pure hits) must be byte-identical — at 1 worker and at NumCPU workers
// (run under -race in CI).
func TestMemoEquivalence(t *testing.T) {
	ws := workloads.All[:4]
	plans := map[string]Plan{
		"default":  NewReportPlan(ws, 1, 2),
		"grid":     NewPlan(ws, 1),
		"temporal": TemporalPlan(ws, 1),
	}
	for name, p := range plans {
		p := p
		t.Run(name, func(t *testing.T) {
			fresh := runPlanReport(t, p, 1)
			for _, workers := range []int{1, runtime.NumCPU()} {
				store := memo.NewStore(0)
				cold := runPlanReport(t, p.WithMemo(store), workers)
				if cold != fresh {
					t.Fatalf("workers=%d: cold memoized report differs from fresh", workers)
				}
				warm := runPlanReport(t, p.WithMemo(store), workers)
				if warm != fresh {
					t.Fatalf("workers=%d: warm memoized report differs from fresh", workers)
				}
				if st := store.Stats(); st.Hits != uint64(p.NumCells()) {
					t.Fatalf("workers=%d: warm pass hit %d of %d cells (%+v)", workers, st.Hits, p.NumCells(), st)
				}
			}
		})
	}
}

func TestMemoEquivalenceChaos(t *testing.T) {
	p := NewChaosPlan(1)
	fresh := runChaosReport(t, p, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		store := memo.NewStore(0)
		cold := runChaosReport(t, p.WithMemo(store), workers)
		if cold != fresh {
			t.Fatalf("workers=%d: cold memoized chaos report differs from fresh", workers)
		}
		warm := runChaosReport(t, p.WithMemo(store), workers)
		if warm != fresh {
			t.Fatalf("workers=%d: warm memoized chaos report differs from fresh", workers)
		}
		if st := store.KindStats(memo.KindChaos); st.Hits < uint64(p.NumCells()) {
			t.Fatalf("workers=%d: warm chaos pass hit %d of %d cells", workers, st.Hits, p.NumCells())
		}
	}
}

// TestMemoHitNeverTouchesPool pins the "hits never check a runtime out
// of rt.Pool" contract: a fully warm pass must leave the pool's
// acquisition counters exactly where they were.
func TestMemoHitNeverTouchesPool(t *testing.T) {
	store := memo.NewStore(0)
	p := NewReportPlan(workloads.All[:2], 1, 2).WithMemo(store)
	cp := NewChaosPlan(1).WithMemo(store)
	pass := func() {
		if _, err := RunCampaign(p, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := RunCampaign(cp, 1); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	before := rt.DefaultPool.Stats()
	pass()
	after := rt.DefaultPool.Stats()
	if acq, was := after.Hits+after.Misses, before.Hits+before.Misses; acq != was {
		t.Fatalf("warm pass acquired %d runtimes from the pool, want 0", acq-was)
	}
}

// TestAllocBudgetMemoHit pins the memoized cell hit path — digest
// composition, store lookup, result handout — at zero heap allocations.
func TestAllocBudgetMemoHit(t *testing.T) {
	store := memo.NewStore(0)
	p := NewReportPlan(workloads.All[:2], 1, 2).WithMemo(store)
	cp := NewChaosPlan(1).WithMemo(store)
	if _, err := RunCampaign(p, 1); err != nil {
		t.Fatal(err)
	}
	cp.ComputeCell(0)
	perfCell, memCell := 0, p.NumCells()-1
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := p.LookupCell(perfCell); !ok {
			t.Fatal("perf cell missed")
		}
		if _, ok := p.LookupCell(memCell); !ok {
			t.Fatal("mem cell missed")
		}
	}); n != 0 {
		t.Errorf("plan cell hit path allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := cp.LookupCell(0); !ok {
			t.Fatal("chaos cell missed")
		}
	}); n != 0 {
		t.Errorf("chaos cell hit path allocates %v allocs/op, want 0", n)
	}
}

// TestCellDigestsDistinctAndStable: digests are a pure function of cell
// coordinates — stable across plan constructions, distinct across every
// cell of every campaign unless two cells run equal configurations (the
// report sections share their default cells with the report grid, under
// the same key), and sensitive to each coordinate axis.
func TestCellDigestsDistinctAndStable(t *testing.T) {
	plans := func() []Plan {
		return []Plan{NewReportPlan(workloads.All, 1, 4), TemporalPlan(workloads.All, 1), AblationPlan(1), ASICPlan(1), HybridPlan(1)}
	}
	again := plans()
	seen := map[memo.Digest]string{}
	digestOf := map[string]memo.Digest{}
	for pi, p1 := range plans() {
		keys := map[string]bool{}
		for i := 0; i < p1.NumCells(); i++ {
			d, k := p1.CellDigest(i), p1.Key(i)
			if d != again[pi].CellDigest(i) {
				t.Fatalf("cell %s digest unstable across plan constructions", k)
			}
			if keys[k] {
				t.Fatalf("plan %d enumerates cell %s twice", pi, k)
			}
			keys[k] = true
			if prev, dup := seen[d]; dup && prev != k {
				t.Fatalf("cells %s and %s collide", prev, k)
			}
			if prev, ok := digestOf[k]; ok && prev != d {
				t.Fatalf("cell %s has two digests across plans", k)
			}
			seen[d], digestOf[k] = k, d
		}
	}
	cp := NewChaosPlan(1)
	for i := 0; i < cp.NumCells(); i++ {
		d := cp.CellDigest(i)
		if prev, dup := seen[d]; dup {
			t.Fatalf("chaos cell %s collides with %s", cp.Key(i), prev)
		}
		seen[d] = cp.Key(i)
	}

	// Axis sensitivity: flipping any one coordinate changes the key.
	w := workloads.All[0]
	base := CellDigest(w, rt.Subheap, false, 1)
	knob := func(set func(*Config)) memo.Digest {
		c := cfgSubheap
		set(&c)
		return c.digest(w, 1)
	}
	for name, other := range map[string]memo.Digest{
		"workload":         CellDigest(workloads.All[1], rt.Subheap, false, 1),
		"mode":             CellDigest(w, rt.Wrapped, false, 1),
		"promote":          CellDigest(w, rt.Subheap, true, 1),
		"scale":            CellDigest(w, rt.Subheap, false, 2),
		"NoNarrow":         knob(func(c *Config) { c.NoNarrow = true }),
		"ForceGlobalTable": knob(func(c *Config) { c.ForceGlobalTable = true }),
		"ExplicitChecks":   knob(func(c *Config) { c.ExplicitChecks = true }),
		"MissPenalty":      knob(func(c *Config) { c.Cost.MissPenalty = 40 }),
		"PromoteBase":      knob(func(c *Config) { c.Cost.PromoteBase = 0 }),
	} {
		if other == base {
			t.Errorf("digest insensitive to %s axis", name)
		}
	}
}

// TestCellDigestPinnedVectors pins the full grid-cell composition —
// including the cost-model folding — against known hex values, the
// exp-level counterpart of internal/memo's golden vectors. If this test
// fails without a deliberate key-schema change (digestVersion,
// workloads.Version, or the cost model), the encoder drifted.
func TestCellDigestPinnedVectors(t *testing.T) {
	w, ok := workloads.ByName("treeadd")
	if !ok {
		t.Fatal("treeadd missing")
	}
	if got := fmt.Sprint(CellDigest(w, rt.Subheap, false, 1)); got != "e683de658315c22d03bfe6290b523d9e2d41d4700ce7666a16e5d36c8927df82" {
		t.Errorf("treeadd/subheap cell digest drifted: %s", got)
	}
	if got := fmt.Sprint(NewChaosPlan(1).CellDigest(0)); got != "49bef41e8fa189e065716c8221b74c7f0728bee6b321a0dff556e3d0456e78b0" {
		t.Errorf("chaos cell 0 digest drifted: %s", got)
	}
	// DefaultCost must be what LookupCell keys on, so a calibration change
	// invalidates old entries.
	alt := cellDigestCost(w, rt.Subheap, false, 1, costWithMissPenalty(21))
	if alt == CellDigest(w, rt.Subheap, false, 1) {
		t.Fatal("cost model not folded into the cell digest")
	}
}

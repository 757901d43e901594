package exp

import (
	"testing"

	"infat/internal/memo"
	"infat/internal/workloads"
)

// TestSectionScaleClamp: the report sections raise scale to 1 the way
// the report grid does, so scales 0 and -2 render byte-identically to
// scale 1 instead of panicking or dividing by a baseline run at another
// scale.
func TestSectionScaleClamp(t *testing.T) {
	if raceEnabled {
		t.Skip("three sections at three scales; the race step runs them in the reuse test")
	}
	for name, section := range map[string]func(scale int) Plan{
		"ablations": AblationPlan, "asic": ASICPlan, "hybrid": HybridPlan,
	} {
		want, err := RunReport(section(1), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{0, -2} {
			got, err := RunReport(section(scale), 0)
			if err != nil {
				t.Fatalf("%s at scale %d: %v", name, scale, err)
			}
			if got != want {
				t.Errorf("%s at scale %d differs from scale 1:\n%s\nwant:\n%s", name, scale, got, want)
			}
		}
	}
}

// TestSectionPlansShareWarmStore: the report sections are plan cells, so
// they share a memo store with the report grid. After the scale-1 perf
// grid, the ablation, ASIC, hybrid and temporal plans miss exactly the
// 73 cells the grid does not run (12 ablation knob cells, 25 non-default
// ASIC cost cells, 18 hybrid and 18 ifp-temporal cells), and each then
// re-renders from the warm store computing nothing, with the same bytes.
func TestSectionPlansShareWarmStore(t *testing.T) {
	if raceEnabled {
		t.Skip("163 cells; the race step runs TestMemoEquivalence")
	}
	sections := []Plan{AblationPlan(1), ASICPlan(1), HybridPlan(1), TemporalPlan(1)}
	// Equal configurations are enumerated once: the ASIC sweep's 40 runs
	// are 35 cells, the ablations' 36 are 20.
	for i, want := range []int{20, 35, 72, 108} {
		if got := sections[i].NumCells(); got != want {
			t.Errorf("section %d enumerates %d cells, want %d", i, got, want)
		}
	}
	store := memo.NewStore(0)
	if _, err := RunCampaign(NewPlan(workloads.All, 1).WithMemo(store), 0); err != nil {
		t.Fatal(err)
	}
	misses := store.Stats().Misses
	cold := make([]string, len(sections))
	for i, p := range sections {
		cold[i] = runPlanReport(t, p.WithMemo(store), 0)
	}
	if got := store.Stats().Misses - misses; got != 73 {
		t.Fatalf("section plans missed %d cells after the perf grid, want 73", got)
	}
	for i, p := range sections {
		misses := store.Stats().Misses
		if warm := runPlanReport(t, p.WithMemo(store), 0); warm != cold[i] {
			t.Errorf("section %d: warm report differs from cold", i)
		}
		if got := store.Stats().Misses - misses; got != 0 {
			t.Errorf("section %d: warm re-render computed %d cells, want 0", i, got)
		}
	}
}

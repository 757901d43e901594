package exp

import (
	"reflect"
	"testing"

	"infat/internal/chaos"
)

// TestChaosCampaignParallelEquivalence: the campaign must produce an
// identical outcome slice (and therefore a byte-identical report) at any
// worker count, including the degenerate scale clamp.
func TestChaosCampaignParallelEquivalence(t *testing.T) {
	run := func(scale, workers int) []chaos.Outcome {
		t.Helper()
		out, err := RunCampaign(NewChaosPlan(scale), workers)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1, 1)
	if want := len(chaos.Schemes) * len(chaos.Faults) * ChaosSeedsPerCell; len(serial) != want {
		t.Fatalf("campaign size = %d, want %d", len(serial), want)
	}
	for _, workers := range []int{0, 4} {
		if par := run(1, workers); !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: outcome slice differs from serial", workers)
		}
	}
	if got := run(0, 1); !reflect.DeepEqual(serial, got) {
		t.Error("scale clamp: scale=0 differs from scale=1")
	}
	if rep1, _ := ChaosReport(1, 1); rep1 != chaos.Report(serial) {
		t.Error("ChaosReport differs from Report(serial outcomes)")
	}
}

func TestChaosReportNoInternal(t *testing.T) {
	_, internal := ChaosReport(1, 0)
	if internal != 0 {
		rep, _ := ChaosReport(1, 1)
		t.Fatalf("campaign produced %d internal outcomes:\n%s", internal, rep)
	}
}

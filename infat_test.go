package infat

import (
	"strings"
	"testing"

	"infat/internal/machine"
)

func TestSystemEndToEnd(t *testing.T) {
	sys := NewSystem(Subheap)
	s := StructOf("S",
		Field("vulnerable", ArrayOf(Char, 12)),
		Field("sensitive", ArrayOf(Char, 12)))
	obj, err := sys.Malloc(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := sys.SubobjIndexOf(s, "vulnerable")
	if err != nil {
		t.Fatal(err)
	}
	p := sys.SetSub(obj.P, idx)
	p, pb := sys.Promote(p)
	if !pb.Valid || pb.B.Span() != 12 {
		t.Fatalf("narrowed bounds = %+v", pb)
	}
	if err := sys.Store(sys.GEP(p, 11, pb), 'A', 1, pb); err != nil {
		t.Fatalf("in-bounds write: %v", err)
	}
	err = sys.Store(sys.GEP(p, 12, pb), 'A', 1, pb)
	if !IsSpatialTrap(err) {
		t.Fatalf("intra-object overflow missed: %v", err)
	}
	if c := sys.Counters(); c.Promote == 0 || c.Checks == 0 {
		t.Error("no instrumentation activity recorded")
	}
}

func TestRunCDetects(t *testing.T) {
	src := `
int main() {
	int buf[4];
	buf[4] = 1;
	return 0;
}`
	if _, _, err := RunC(src, Baseline); err != nil {
		t.Fatalf("baseline trapped: %v", err)
	}
	if _, _, err := RunC(src, Wrapped); err == nil {
		t.Fatal("instrumented run missed the overflow")
	}
	out, exit, err := RunC(`int main() { print(7); return 3; }`, Subheap)
	if err != nil || exit != 3 || len(out) != 1 || out[0] != 7 {
		t.Fatalf("run = (%v, %d, %v)", out, exit, err)
	}
}

func TestJulietSuiteAPI(t *testing.T) {
	s := JulietSuite(Subheap, 0)
	if s.Detected != s.BadCases || s.FalsePositives != 0 || s.Errors != 0 {
		t.Fatalf("suite result: %+v", s.Report())
	}
}

func TestJulietSuiteParallelMatchesSerial(t *testing.T) {
	serial := JulietSuite(Wrapped, 1)
	par := JulietSuite(Wrapped, 4)
	if serial.Report() != par.Report() {
		t.Errorf("parallel report differs:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.Report(), par.Report())
	}
}

func TestHardwareCostAPI(t *testing.T) {
	out := HardwareCost()
	for _, want := range []string{"Figure 13", "IFP Unit", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRelatedWorkAPI(t *testing.T) {
	out, err := RelatedWork(300)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "in-fat-pointer") {
		t.Error("missing our row")
	}
}

func TestWorkloadsListed(t *testing.T) {
	if len(Workloads()) != 18 {
		t.Errorf("workloads = %d, want 18", len(Workloads()))
	}
}

func TestRunCBudget(t *testing.T) {
	// An infinite loop is cut off by the budget as a typed resource trap.
	_, _, err := RunCBudget(`int main() { while (1) { } return 0; }`, Subheap, 100_000)
	if !IsResourceTrap(err) {
		t.Fatalf("err = %v, want resource trap", err)
	}
	if IsSpatialTrap(err) {
		t.Fatal("resource trap misclassified as spatial")
	}
	// A run that fits its budget matches the unlimited variant.
	out, exit, err := RunCBudget(`int main() { print(7); return 3; }`, Subheap, 10_000_000)
	if err != nil || exit != 3 || len(out) != 1 || out[0] != 7 {
		t.Fatalf("run = (%v, %d, %v)", out, exit, err)
	}
}

func TestIsSpatialTrapClassifiesRunCErrors(t *testing.T) {
	_, _, err := RunC(`
int main() {
	int buf[4];
	buf[4] = 1;
	return 0;
}`, Subheap)
	if !IsSpatialTrap(err) {
		t.Fatalf("spatial trap not recognized through RunC's error wrapping: %v", err)
	}
	if IsResourceTrap(err) {
		t.Fatal("spatial trap misclassified as resource trap")
	}
}

func TestIsInternalTrap(t *testing.T) {
	// Internal traps come from recovered simulator panics, never from
	// guest behavior — a spatial detection must not classify as one.
	_, _, err := RunC(`int main() { int b[2]; b[5] = 1; return 0; }`, Subheap)
	if IsInternalTrap(err) {
		t.Fatalf("spatial trap misclassified as internal: %v", err)
	}
	if !IsInternalTrap(&machine.Trap{Kind: machine.TrapInternal, Msg: "recovered panic: x"}) {
		t.Fatal("IsInternalTrap missed a TrapInternal")
	}
}

func TestChaosCampaignDeterministicAcrossWorkers(t *testing.T) {
	serial, internal := ChaosCampaign(1, 1)
	if internal != 0 {
		t.Fatalf("campaign reported %d internal outcomes:\n%s", internal, serial)
	}
	parallel, _ := ChaosCampaign(1, 0)
	if serial != parallel {
		t.Fatal("chaos report differs between serial and parallel runs")
	}
	if !strings.Contains(serial, "Per-scheme detection rate") {
		t.Error("report missing per-scheme summary")
	}
}

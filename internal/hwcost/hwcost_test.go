package hwcost

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultMatchesPaper(t *testing.T) {
	comps := Model(Default)
	van, mod := Totals(comps)
	if van != VanillaLUTs {
		t.Errorf("vanilla total = %d, want %d", van, VanillaLUTs)
	}
	// The modified total must land within 2% of the paper's 59,261.
	if math.Abs(float64(mod-ModifiedLUTs))/ModifiedLUTs > 0.02 {
		t.Errorf("modified total = %d, want ~%d", mod, ModifiedLUTs)
	}
	// Growth share checks from §5.3: IFP unit 38%, LSU 19% of increase;
	// execute stage ~62%; issue ~29%.
	increase := float64(mod - van)
	var ifpG, lsuG, execG, issueG float64
	for _, c := range comps {
		g := float64(c.Growth)
		switch c.Name {
		case "IFP Unit":
			ifpG = g
		case "LSU":
			lsuG = g
		}
		switch c.Stage {
		case "execute":
			execG += g
		case "issue":
			issueG += g
		}
	}
	within := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol }
	if !within(ifpG/increase, 0.38, 0.02) {
		t.Errorf("IFP unit share = %.2f, want ~0.38", ifpG/increase)
	}
	if !within(lsuG/increase, 0.19, 0.02) {
		t.Errorf("LSU share = %.2f, want ~0.19", lsuG/increase)
	}
	if !within(execG/increase, 0.62, 0.03) {
		t.Errorf("execute-stage share = %.2f, want ~0.62", execG/increase)
	}
	if !within(issueG/increase, 0.29, 0.03) {
		t.Errorf("issue-stage share = %.2f, want ~0.29", issueG/increase)
	}
}

func TestIFPUnitInternals(t *testing.T) {
	// §5.3: walker 3,059 LUTs = 36% of the IFP unit; schemes 2,501 = 30%.
	if WalkerLUTs() != 3059 {
		t.Errorf("walker = %d, want 3059", WalkerLUTs())
	}
	if SchemesLUTs() != 2501 {
		t.Errorf("schemes = %d, want 2501", SchemesLUTs())
	}
	unit := ifpUnit(Default)
	if r := float64(WalkerLUTs()) / float64(unit); math.Abs(r-0.36) > 0.02 {
		t.Errorf("walker share = %.2f, want ~0.36", r)
	}
	if r := float64(SchemesLUTs()) / float64(unit); math.Abs(r-0.30) > 0.02 {
		t.Errorf("schemes share = %.2f, want ~0.30", r)
	}
}

func TestAblationMonotonicity(t *testing.T) {
	// Every ablation must shrink the design, and the §5.3 ordering must
	// hold: the bounds registers cost more than the IFP unit.
	_, full := Totals(Model(Default))

	noWalk := Default
	noWalk.LayoutWalk = false
	_, nw := Totals(Model(noWalk))
	if full-nw != WalkerLUTs() {
		t.Errorf("walker ablation saves %d, want %d", full-nw, WalkerLUTs())
	}

	noRegs := Default
	noRegs.BoundsRegs = 0
	noRegs.ImplicitChk = false
	_, nr := Totals(Model(noRegs))
	regSave := full - nr

	noIFP := Default
	noIFP.LayoutWalk = false
	noIFP.MAC = false
	noIFP.LocalOffset, noIFP.Subheap, noIFP.GlobalTable = false, false, false
	_, ni := Totals(Model(noIFP))
	ifpSave := 0
	for _, c := range Model(Default) {
		if c.Name == "IFP Unit" {
			ifpSave = c.Growth
		}
	}
	_ = ni
	if regSave <= ifpSave {
		t.Errorf("bounds registers save %d <= IFP unit %d; §5.3 says registers dominate",
			regSave, ifpSave)
	}
}

func TestSchemeKnobs(t *testing.T) {
	one := Default
	one.LocalOffset, one.GlobalTable = false, false
	_, sub := Totals(Model(one))
	_, full := Totals(Model(Default))
	if sub >= full {
		t.Error("single-scheme design not smaller")
	}
	none := Config{}
	van, mod := Totals(Model(none))
	if van != mod {
		t.Errorf("empty config grew the design: %d -> %d", van, mod)
	}
}

// TestTemporalKnob: the generation comparator is additive (and small —
// it must not disturb the calibrated Default totals, which model the
// paper's spatial-only prototype), and Default itself stays temporal-off
// so TestDefaultMatchesPaper keeps pinning the published numbers.
func TestTemporalKnob(t *testing.T) {
	if Default.Temporal {
		t.Fatal("Default enables the temporal comparator; the paper's prototype is spatial-only")
	}
	_, full := Totals(Model(Default))
	tc := Default
	tc.Temporal = true
	_, withGen := Totals(Model(tc))
	if withGen-full != genCompareLUTs {
		t.Errorf("temporal knob adds %d LUTs, want %d", withGen-full, genCompareLUTs)
	}
	if genCompareLUTs <= 0 || genCompareLUTs >= schemeLocalLUTs {
		t.Errorf("generation comparator %d LUTs out of range (0, %d): it is a compare+mux, not a scheme",
			genCompareLUTs, schemeLocalLUTs)
	}
}

func TestRendering(t *testing.T) {
	out := Fig13(Default)
	for _, want := range []string{"IFP Unit", "LSU", "paper:", "layout walker"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig13 output missing %q", want)
		}
	}
	ab := Ablations()
	for _, want := range []string{"no layout walker", "no bounds registers", "full design",
		"add temporal generation tagging"} {
		if !strings.Contains(ab, want) {
			t.Errorf("Ablations output missing %q", want)
		}
	}
	// Non-default config renders without the paper footer.
	alt := Default
	alt.MAC = false
	if strings.Contains(Fig13(alt), "paper:") {
		t.Error("non-default config printed paper comparison")
	}
}

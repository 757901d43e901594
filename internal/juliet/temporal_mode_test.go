package juliet

import (
	"errors"
	"strings"
	"testing"

	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/rt"
)

func isTemporalTrap(err error) bool {
	var re *minic.RunError
	if errors.As(err, &re) {
		return machine.IsTrap(re.Err, machine.TrapTemporal)
	}
	return machine.IsTrap(err, machine.TrapTemporal)
}

// TestTemporalModeCharacterization flips the boundary suite: under
// rt.IFPTemporal every case — including the ones the spatial modes
// document as misses — must detect, per ExpectDetectTemporal.
func TestTemporalModeCharacterization(t *testing.T) {
	for _, c := range GenerateTemporal() {
		_, _, err := minic.Execute(c.Src, rt.IFPTemporal)
		detected := err != nil
		if detected != c.ExpectDetectTemporal {
			t.Errorf("%s/ifp-temporal: detected=%v, expected %v (err=%v)",
				c.Name, detected, c.ExpectDetectTemporal, err)
		}
	}
}

// TestTemporalModeCatchesSlotReuse pins the headline flip: the same-type
// slot-reuse UAF that metadata invalidation cannot see is caught by the
// generation comparison specifically (TrapTemporal, not a spatial trap).
func TestTemporalModeCatchesSlotReuse(t *testing.T) {
	for _, c := range GenerateTemporal() {
		if c.Name != "uaf_slot_reused_same_type" {
			continue
		}
		if c.ExpectDetect {
			t.Fatal("spatial expectation changed: the case is no longer a documented miss")
		}
		_, _, err := minic.Execute(c.Src, rt.IFPTemporal)
		if !isTemporalTrap(err) {
			t.Fatalf("expected a TrapTemporal detection, got %v", err)
		}
		return
	}
	t.Fatal("uaf_slot_reused_same_type case missing from GenerateTemporal")
}

// TestTemporalSpatialBehaviorUnchanged is the equivalence half of the
// boundary flip: the temporal suite keeps pinning the *spatial* guarantee,
// so under the spatial modes each case's outcome must still match
// ExpectDetect exactly (byte-identical suite behavior to before the
// temporal subsystem existed).
func TestTemporalSpatialBehaviorUnchanged(t *testing.T) {
	for _, c := range GenerateTemporal() {
		for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped, rt.Hybrid} {
			_, _, err := minic.Execute(c.Src, mode)
			if detected := err != nil; detected != c.ExpectDetect {
				t.Errorf("%s/%v: detected=%v, expected %v (spatial behavior changed; err=%v)",
					c.Name, mode, detected, c.ExpectDetect, err)
			}
			if err != nil && isTemporalTrap(err) {
				t.Errorf("%s/%v: spatial mode produced a temporal trap: %v", c.Name, mode, err)
			}
		}
	}
}

func TestCWE415416Shape(t *testing.T) {
	cases := GenerateCWE415416()
	var good, bad, c415, c416 int
	names := map[string]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate case name %s", c.Name)
		}
		names[c.Name] = true
		if c.Bad {
			bad++
		} else {
			good++
		}
		switch c.CWE {
		case "CWE415":
			c415++
		case "CWE416":
			c416++
		default:
			t.Errorf("%s: unexpected CWE %q", c.Name, c.CWE)
		}
	}
	if good != bad {
		t.Errorf("good/bad imbalance: %d vs %d", good, bad)
	}
	if c415 == 0 || c416 == 0 {
		t.Errorf("family missing: CWE415=%d CWE416=%d cases", c415, c416)
	}
}

func TestCWE415416Compile(t *testing.T) {
	for _, c := range GenerateCWE415416() {
		prog, err := minic.Parse(c.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", c.Name, err, c.Src)
		}
		if _, err := minic.Compile(prog); err != nil {
			t.Fatalf("%s: compile: %v\n%s", c.Name, err, c.Src)
		}
	}
}

// TestCWE415416FullDetection is the temporal acceptance contract: under
// rt.IFPTemporal every bad variant is detected and every good variant
// passes, and the rendered report carries the CWE415/CWE416 rows.
func TestCWE415416FullDetection(t *testing.T) {
	cases := GenerateCWE415416()
	s := Run(cases, rt.IFPTemporal, 1)
	if s.Detected != s.BadCases || s.FalsePositives != 0 || s.Errors != 0 {
		for _, f := range s.Failures() {
			t.Errorf("ifp-temporal: %s %s: %s", f.Verdict, f.Case.Name, f.Detail)
		}
	}
	rep := s.Report()
	if !strings.Contains(rep, "CWE415") || !strings.Contains(rep, "CWE416") {
		t.Errorf("report missing temporal CWE rows:\n%s", rep)
	}
	if unk := s.UnknownCWEs(); len(unk) != 0 {
		t.Errorf("unexpected CWE families in outcomes: %v", unk)
	}
}

// TestNoUnknownCWEFamilies makes an unexpected CWE key a test failure for
// every generator, and checks the report mechanism that renders (rather
// than drops) such a key.
func TestNoUnknownCWEFamilies(t *testing.T) {
	all := append(Generate(), GenerateCWE415416()...)
	s := Summary{Outcomes: make([]Outcome, len(all))}
	for i, c := range all {
		s.Outcomes[i] = Outcome{Case: c}
	}
	if unk := s.UnknownCWEs(); len(unk) != 0 {
		t.Fatalf("generator produced families the report table does not know: %v", unk)
	}

	rogue := Summary{Outcomes: []Outcome{{Case: Case{Name: "x", CWE: "CWE999", Bad: true}}}}
	if unk := rogue.UnknownCWEs(); len(unk) != 1 || unk[0] != "CWE999" {
		t.Fatalf("UnknownCWEs missed the rogue family: %v", unk)
	}
	if rep := rogue.Report(); !strings.Contains(rep, "CWE999") ||
		!strings.Contains(rep, "unexpected family") {
		t.Fatalf("report dropped the rogue family:\n%s", rep)
	}
}

// TestSpatialSuiteUnderTemporalMode: the spatial suite loses subobject
// granularity under rt.IFPTemporal (the tag bits are spent on the
// generation) but must keep object-granularity protection: every
// non-INTRA bad case still detects and no good case false-positives.
func TestSpatialSuiteUnderTemporalMode(t *testing.T) {
	var cases []Case
	for _, c := range Generate() {
		if c.CWE != "INTRA" {
			cases = append(cases, c)
		}
	}
	s := Run(cases, rt.IFPTemporal, 1)
	if s.Detected != s.BadCases || s.FalsePositives != 0 || s.Errors != 0 {
		for _, f := range s.Failures() {
			t.Errorf("ifp-temporal: %s %s: %s", f.Verdict, f.Case.Name, f.Detail)
		}
	}
}

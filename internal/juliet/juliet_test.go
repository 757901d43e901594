package juliet

import (
	"reflect"
	"strings"
	"testing"

	"infat/internal/minic"
	"infat/internal/rt"
)

func TestGenerateShape(t *testing.T) {
	cases := Generate()
	if len(cases) < 100 {
		t.Fatalf("suite has only %d cases", len(cases))
	}
	var good, bad int
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
	}
	if good != bad {
		t.Errorf("good/bad imbalance: %d vs %d", good, bad)
	}
	for _, cwe := range []string{"CWE121", "CWE122", "CWE124", "CWE126", "CWE127", "INTRA"} {
		found := false
		for _, c := range cases {
			if c.CWE == cwe {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no cases for %s", cwe)
		}
	}
}

func TestAllCasesCompile(t *testing.T) {
	for _, c := range Generate() {
		prog, err := minic.Parse(c.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", c.Name, err, c.Src)
		}
		if _, err := minic.Compile(prog); err != nil {
			t.Fatalf("%s: compile: %v\n%s", c.Name, err, c.Src)
		}
	}
}

func TestBaselineRunsEverythingClean(t *testing.T) {
	// The uninstrumented baseline must execute every case — good AND bad
	// — without traps: the simulated overcommit heap tolerates the
	// out-of-bounds accesses like real hardware would (this validates
	// that the generated "bad" code is a silent corruption, not a crash).
	for _, c := range Generate() {
		if _, _, err := minic.Execute(c.Src, rt.Baseline); err != nil {
			t.Errorf("%s: baseline error: %v", c.Name, err)
		}
	}
}

func TestFullDetection(t *testing.T) {
	// The paper's §5.1 headline: all vulnerable cases detected, all
	// non-vulnerable cases pass — in both allocator configurations.
	cases := Generate()
	for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped} {
		s := Run(cases, mode, 1)
		if s.Detected != s.BadCases {
			for _, f := range s.Failures() {
				if f.Verdict == Missed {
					t.Errorf("%v: missed %s", mode, f.Case.Name)
				}
			}
		}
		if s.FalsePositives != 0 {
			for _, f := range s.Failures() {
				if f.Verdict == FalsePositive {
					t.Errorf("%v: false positive %s: %s", mode, f.Case.Name, f.Detail)
				}
			}
		}
		if s.Errors != 0 {
			for _, f := range s.Failures() {
				if f.Verdict == Errored {
					t.Errorf("%v: error %s: %s", mode, f.Case.Name, f.Detail)
				}
			}
		}
		if rep := s.Report(); !strings.Contains(rep, "detected:") {
			t.Error("report missing summary line")
		}
	}
}

// TestRunParallelEquivalence is the suite's isolation proof: the summary
// (counts, per-case outcomes in case order, and the rendered report) must
// be identical at workers=1 and workers=N. Run under -race in CI.
func TestRunParallelEquivalence(t *testing.T) {
	cases := Generate()
	serial := Run(cases, rt.Subheap, 1)
	for _, workers := range []int{2, 8} {
		par := Run(cases, rt.Subheap, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: summary differs from serial run", workers)
		}
		if serial.Report() != par.Report() {
			t.Errorf("workers=%d: report differs:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial.Report(), par.Report())
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{Pass, Missed, FalsePositive, Errored, Verdict(9)} {
		if v.String() == "" {
			t.Error("empty verdict string")
		}
	}
}

func BenchmarkJulietSuite(b *testing.B) {
	cases := Generate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Run(cases, rt.Subheap, 1)
		if s.Detected != s.BadCases {
			b.Fatalf("missed %d cases", s.BadCases-s.Detected)
		}
	}
}

// TestTemporalCharacterization pins the §3 temporal-scope claim: metadata
// invalidation catches exactly the annotated subset of use-after-free
// patterns, in both allocator configurations.
func TestTemporalCharacterization(t *testing.T) {
	for _, c := range GenerateTemporal() {
		for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped} {
			_, _, err := minic.Execute(c.Src, mode)
			detected := err != nil
			if detected != c.ExpectDetect {
				t.Errorf("%s/%v: detected=%v, expected %v (%s; err=%v)",
					c.Name, mode, detected, c.ExpectDetect, c.Why, err)
			}
		}
		// Baseline never detects anything... except the allocator-level
		// double free, which faults in any libc.
		_, _, err := minic.Execute(c.Src, rt.Baseline)
		if c.Name == "double_free" {
			if err == nil {
				t.Error("double_free: baseline allocator accepted the second free")
			}
		} else if err != nil {
			t.Errorf("%s baseline: %v", c.Name, err)
		}
	}
}

// TestRegisterCachedBoundsGap demonstrates, at the API level, the §3 gap
// the VM's spill-everything codegen hides: when a pointer and its bounds
// stay in an IFPR across a free (as a register-allocating compiler would
// keep them), no promote re-reads the invalidated metadata and the
// use-after-free passes the (stale) bounds check.
func TestRegisterCachedBoundsGap(t *testing.T) {
	r := rt.New(rt.Subheap)
	o, err := r.MallocBytes(32)
	if err != nil {
		t.Fatal(err)
	}
	// The pointer cell is allocated up front so freeing o cannot recycle
	// its block into the cell's pool (address reuse is a separate,
	// legitimately undetectable case — see uaf_slot_reused_same_type).
	cell, err := r.MallocBytes(8)
	if err != nil {
		t.Fatal(err)
	}
	p, b := o.P, o.B // "in registers"
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	// The stale access is NOT detected: bounds were never re-fetched.
	if err := r.Store(p, 1, 8, b); err != nil {
		t.Fatalf("expected the documented gap (undetected UAF), got %v", err)
	}
	// As soon as the pointer round-trips through memory, promote catches it.
	if err := r.StorePtr(cell.P, cell.B, p, b); err != nil {
		t.Fatal(err)
	}
	q, qb, err := r.LoadPtr(cell.P, cell.B)
	if err != nil {
		t.Fatal(err)
	}
	if qb.Valid {
		t.Fatal("promote validated cleared metadata")
	}
	if _, err := r.Load(q, 8, qb); err == nil {
		t.Fatal("reloaded stale pointer dereferenced successfully")
	}
}

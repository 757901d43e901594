package juliet

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/pool"
	"infat/internal/rt"
)

// Verdict is the outcome of one case in one mode.
type Verdict int

// Verdicts.
const (
	// Pass: a good case ran clean, or a bad case trapped spatially.
	Pass Verdict = iota
	// Missed: a bad case ran to completion undetected.
	Missed
	// FalsePositive: a good case trapped.
	FalsePositive
	// Errored: compile error or non-spatial runtime failure.
	Errored
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Missed:
		return "missed"
	case FalsePositive:
		return "false-positive"
	case Errored:
		return "error"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Outcome records one case's result.
type Outcome struct {
	Case    Case
	Mode    rt.Mode
	Verdict Verdict
	Detail  string
}

// Summary aggregates a run.
type Summary struct {
	Total          int
	BadCases       int
	Detected       int
	Missed         int
	FalsePositives int
	Errors         int
	Outcomes       []Outcome
}

// RunCase executes one case in one mode and classifies the result. A
// detection is a spatial trap (poison or bounds) or a temporal trap
// (stale generation / double free) — the latter only ever occurs under
// rt.IFPTemporal, so spatial-mode classification is unchanged by it.
func RunCase(c Case, mode rt.Mode) Outcome {
	_, _, err := minic.Execute(c.Src, mode)
	o := Outcome{Case: c, Mode: mode}
	detected := false
	if err != nil {
		var re *minic.RunError
		if errors.As(err, &re) &&
			(machine.IsTrap(re.Err, machine.TrapPoison) ||
				machine.IsTrap(re.Err, machine.TrapBounds) ||
				machine.IsTrap(re.Err, machine.TrapTemporal)) {
			detected = true
		}
	}
	switch {
	case err == nil && !c.Bad:
		o.Verdict = Pass
	case err == nil && c.Bad:
		o.Verdict = Missed
	case detected && c.Bad:
		o.Verdict = Pass
		o.Detail = err.Error()
	case detected && !c.Bad:
		o.Verdict = FalsePositive
		o.Detail = err.Error()
	default:
		o.Verdict = Errored
		o.Detail = err.Error()
	}
	return o
}

// Run executes the whole suite in one mode, fanning the cases over at
// most workers goroutines (workers <= 0 selects GOMAXPROCS, 1 is fully
// serial). Each case compiles and runs in its own rt.Runtime, so cases
// share no mutable state; outcomes land in a pre-indexed slice and the
// summary is aggregated in case order, making the result identical at
// any worker count.
func Run(cases []Case, mode rt.Mode, workers int) Summary {
	outcomes := make([]Outcome, len(cases))
	// RunCase never fails at the harness level — compile/runtime errors
	// are classified into the outcome's verdict — so Map cannot error.
	_ = pool.Map(workers, len(cases), func(i int) error {
		outcomes[i] = RunCase(cases[i], mode)
		return nil
	})

	s := Summary{Total: len(cases), Outcomes: outcomes}
	for i, c := range cases {
		if c.Bad {
			s.BadCases++
			if outcomes[i].Verdict == Pass {
				s.Detected++
			}
		}
		switch outcomes[i].Verdict {
		case Missed:
			s.Missed++
		case FalsePositive:
			s.FalsePositives++
		case Errored:
			s.Errors++
		}
	}
	return s
}

// Report renders a §5.1-style summary.
func (s Summary) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cases: %d (%d vulnerable, %d non-vulnerable)\n",
		s.Total, s.BadCases, s.Total-s.BadCases)
	fmt.Fprintf(&b, "detected: %d/%d vulnerable\n", s.Detected, s.BadCases)
	fmt.Fprintf(&b, "missed: %d   false positives: %d   errors: %d\n",
		s.Missed, s.FalsePositives, s.Errors)
	byCWE := map[string][2]int{}
	for _, o := range s.Outcomes {
		v := byCWE[o.Case.CWE]
		if o.Case.Bad {
			v[1]++
			if o.Verdict == Pass {
				v[0]++
			}
		}
		byCWE[o.Case.CWE] = v
	}
	for _, cwe := range knownCWEs {
		if v, ok := byCWE[cwe]; ok {
			fmt.Fprintf(&b, "  %-7s %d/%d detected\n", cwe, v[0], v[1])
		}
	}
	// Any family outside the known list still gets a row (marked, sorted)
	// instead of silently vanishing from the table; UnknownCWEs lets tests
	// turn such a key into a failure.
	for _, cwe := range s.UnknownCWEs() {
		v := byCWE[cwe]
		fmt.Fprintf(&b, "  %-7s %d/%d detected (unexpected family)\n", cwe, v[0], v[1])
	}
	return b.String()
}

// knownCWEs is every family the generators produce, in report order.
var knownCWEs = []string{"CWE121", "CWE122", "CWE124", "CWE126", "CWE127", "CWE415", "CWE416", "INTRA"}

// UnknownCWEs returns, sorted, every CWE key present in the outcomes that
// is not in the known family list. A non-empty result means a generator
// produced a family the report table was never taught about — the tests
// treat that as a failure rather than letting the row drop invisibly.
func (s Summary) UnknownCWEs() []string {
	known := make(map[string]bool, len(knownCWEs))
	for _, c := range knownCWEs {
		known[c] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, o := range s.Outcomes {
		if c := o.Case.CWE; !known[c] && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Failures lists non-pass outcomes for debugging.
func (s Summary) Failures() []Outcome {
	var out []Outcome
	for _, o := range s.Outcomes {
		if o.Verdict != Pass {
			out = append(out, o)
		}
	}
	return out
}

// Command ifp-juliet runs the Juliet-style functional evaluation (§5.1):
// it generates MiniC test programs for the selected CWE families (stack/
// heap buffer overflow, underwrite, over-read, under-read, plus intra-
// object variants), runs good and bad versions under both allocator
// configurations, and reports detection results.
//
// -mode ifp-temporal evaluates the generation-tagging mode instead: the
// spatial suite minus the intra-object families (the tag bits carry the
// generation, so subobject granularity is out of scope by design) plus
// the CWE-415 (double free) and CWE-416 (use-after-free) families.
//
// Usage:
//
//	ifp-juliet [-mode subheap|wrapped|both|ifp-temporal] [-parallel N] [-v] [-case name]
//
// Cases fan out over -parallel worker goroutines (default: the number of
// CPUs); each case compiles and runs in its own isolated runtime, and the
// summary is aggregated in case order, so the report is identical at any
// worker count. -parallel 1 restores the fully serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"infat/internal/juliet"
	"infat/internal/rt"
)

func main() {
	modeFlag := flag.String("mode", "both", "allocator configuration: subheap, wrapped, both, or ifp-temporal")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the case grid (1 = serial)")
	verbose := flag.Bool("v", false, "list every case outcome")
	caseName := flag.String("case", "", "run (and print) a single named case")
	flag.Parse()

	cases := juliet.Generate()

	if *caseName != "" {
		// Temporal cases are addressable too; they print the ifp-temporal
		// verdict alongside the spatial ones.
		for _, c := range append(cases, juliet.GenerateCWE415416()...) {
			if c.Name == *caseName {
				fmt.Printf("--- %s (CWE %s, bad=%v)\n%s\n", c.Name, c.CWE, c.Bad, c.Src)
				o := juliet.RunCase(c, rt.Subheap)
				fmt.Printf("subheap: %v %s\n", o.Verdict, o.Detail)
				o = juliet.RunCase(c, rt.Wrapped)
				fmt.Printf("wrapped: %v %s\n", o.Verdict, o.Detail)
				o = juliet.RunCase(c, rt.IFPTemporal)
				fmt.Printf("ifp-temporal: %v %s\n", o.Verdict, o.Detail)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "ifp-juliet: no case named %q\n", *caseName)
		os.Exit(2)
	}

	var modes []rt.Mode
	switch *modeFlag {
	case "subheap":
		modes = []rt.Mode{rt.Subheap}
	case "wrapped":
		modes = []rt.Mode{rt.Wrapped}
	case "both":
		modes = []rt.Mode{rt.Subheap, rt.Wrapped}
	case "ifp-temporal":
		modes = []rt.Mode{rt.IFPTemporal}
	default:
		fmt.Fprintf(os.Stderr, "ifp-juliet: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	// The temporal mode spends the tag bits on the generation, so the
	// intra-object families are out of scope by design; it gains the
	// CWE-415/416 temporal families instead.
	casesFor := func(mode rt.Mode) []juliet.Case {
		if mode != rt.IFPTemporal {
			return cases
		}
		var out []juliet.Case
		for _, c := range cases {
			if c.CWE != "INTRA" {
				out = append(out, c)
			}
		}
		return append(out, juliet.GenerateCWE415416()...)
	}

	exit := 0
	for _, mode := range modes {
		s := juliet.Run(casesFor(mode), mode, *parallel)
		fmt.Printf("=== %v allocator ===\n%s", mode, s.Report())
		if *verbose {
			for _, o := range s.Outcomes {
				fmt.Printf("  %-40s %v\n", o.Case.Name, o.Verdict)
			}
		}
		if s.Missed > 0 || s.FalsePositives > 0 || s.Errors > 0 {
			exit = 1
			for _, f := range s.Failures() {
				fmt.Printf("  FAIL %-40s %v %s\n", f.Case.Name, f.Verdict, f.Detail)
			}
		}
		fmt.Println()
	}
	os.Exit(exit)
}

// Command ifp-bench regenerates the paper's application evaluation (§5.2):
// Table 4 and Figures 10, 11, 12. It runs all 18 workloads in five
// configurations on the simulated machine and prints the corresponding
// table or series.
//
// Usage:
//
//	ifp-bench [-scale N] [-memscale N] [-parallel N] [-table4] [-fig10] [-fig11] [-fig12] [-bench name]
//	          [-chaos] [-ablations] [-hybrid] [-asic] [-related] [-temporal]
//	          [-memo-dir DIR] [-cpuprofile path] [-memprofile path]
//
// With no selection flags, the report (Table 4 and Figures 10–12) is
// printed; -memscale multiplies -scale for Figure 12's memory cells. A
// section flag (-chaos, -ablations, -hybrid, -asic, -related, -temporal)
// prints that section instead; the first one set, in that order, wins.
// Every (workload × configuration) grid — the report's and each
// section's — fans out over -parallel worker goroutines (default: the
// number of CPUs); every cell runs in its own isolated runtime and
// results are collected deterministically, so the output is
// byte-identical at any worker count. -parallel 1 restores the fully
// serial run. -memo-dir routes every grid's cells through a
// content-addressed memo store that loads its snapshot from DIR at
// startup and saves it on exit, so a repeated invocation replays its
// cells instead of re-simulating them (a corrupt or version-skewed
// snapshot is discarded and recomputed, never trusted). Output is
// byte-identical with memoization on or off.
// -cpuprofile and -memprofile write pprof-format host profiles of the
// selected run, so perf work starts from a measurement instead of a guess.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"infat/internal/baseline"
	"infat/internal/chaos"
	"infat/internal/exp"
	"infat/internal/memo"
	"infat/internal/workloads"
)

// main delegates to run so deferred teardown (profile flushing in
// particular) executes on every exit path before the process status is
// set; os.Exit would skip it.
func main() { os.Exit(run()) }

func run() int {
	scale := flag.Int("scale", 1, "workload scale factor (1 = standard run)")
	memScale := flag.Int("memscale", exp.MemScale, "scale multiplier for the memory experiment (Figure 12)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the evaluation grid (1 = serial)")
	table4 := flag.Bool("table4", false, "print Table 4 only")
	fig10 := flag.Bool("fig10", false, "print Figure 10 only")
	fig11 := flag.Bool("fig11", false, "print Figure 11 only")
	fig12 := flag.Bool("fig12", false, "print Figure 12 only")
	bench := flag.String("bench", "", "run a single named workload")
	ablations := flag.Bool("ablations", false, "print the design-choice ablations and tag-layout trade-off")
	chaosFlag := flag.Bool("chaos", false, "run the fault-injection campaign (DESIGN.md §10); exit 1 on any internal outcome")
	hybrid := flag.Bool("hybrid", false, "print the hybrid (dynamic allocator selection) comparison")
	asic := flag.Bool("asic", false, "print the §5.2.4 ASIC extrapolation sweep")
	related := flag.Bool("related", false, "print the related-work comparison")
	temporal := flag.Bool("temporal", false, "print the temporal axis: generation-tagging overhead over the grid plus CWE-415/416 detection rates")
	memoDir := flag.String("memo-dir", "", "memoize the report's and sections' cells, loading the snapshot from DIR at startup and saving it on exit (byte-identical output)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path (pprof format)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this path on exit (pprof format)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "ifp-bench:", err)
		return 1
	}

	// With -memo-dir a memo store backs every grid and round-trips
	// through a snapshot file, so a second invocation starts warm; a bad
	// snapshot is reported and recomputed from scratch.
	var store *memo.Store
	if *memoDir != "" {
		store = memo.NewStore(memo.DefaultEntries)
		if err := store.LoadSnapshot(*memoDir); err != nil {
			fmt.Fprintln(os.Stderr, "ifp-bench: memo snapshot discarded:", err)
		}
		defer func() {
			if err := store.SaveSnapshot(*memoDir); err != nil {
				fmt.Fprintln(os.Stderr, "ifp-bench: memo snapshot save:", err)
			}
		}()
	}

	// Profiles bracket the whole run so a future perf PR starts from a
	// measured flame graph of exactly the command it wants to speed up
	// (e.g. `ifp-bench -cpuprofile cpu.out -parallel 1`).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ifp-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live + cumulative truth
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ifp-bench:", err)
			}
		}()
	}

	selected := workloads.All
	if *bench != "" {
		w, ok := workloads.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "ifp-bench: unknown workload %q\n", *bench)
			return 2
		}
		selected = []workloads.Workload{w}
	}

	if *chaosFlag {
		outcomes, err := exp.RunCampaign(exp.NewChaosPlan(*scale).WithMemo(store), *parallel)
		if err != nil {
			return fail(err)
		}
		fmt.Println(chaos.Report(outcomes))
		if internal := chaos.Summarize(outcomes).Internal; internal > 0 {
			fmt.Fprintf(os.Stderr, "ifp-bench: %d internal outcomes (simulator bugs)\n", internal)
			return 1
		}
		return 0
	}
	// Every grid, the report's and each section's, is a plan whose cells
	// run at -parallel workers through the memo store. section prints a
	// section's plan rendered, then after, if any.
	section := func(p exp.Plan, after string) int {
		out, err := exp.RunReport(p.WithMemo(store), *parallel)
		if err != nil {
			return fail(err)
		}
		fmt.Println(out)
		if after != "" {
			fmt.Println(after)
		}
		return 0
	}
	if *ablations {
		return section(exp.AblationPlan(*scale), exp.TagLayouts())
	}
	if *hybrid {
		return section(exp.HybridPlan(*scale), "")
	}
	if *asic {
		return section(exp.ASICPlan(*scale), "")
	}
	if *related {
		out, err := baseline.Compare(1500)
		if err != nil {
			return fail(err)
		}
		fmt.Println(out)
		return 0
	}
	if *temporal {
		return section(exp.TemporalPlan(workloads.All, *scale), exp.TemporalDetection(*parallel))
	}

	any := *table4 || *fig10 || *fig11 || *fig12
	needPerf := !any || *table4 || *fig10 || *fig11
	needMem := !any || *fig12
	// The report plan resolves -scale and -memscale as every other entry
	// point does: scale < 1 is 1, memscale < 1 is exp.MemScale. A figure
	// selection runs only the cells it needs.
	plan := exp.NewReportPlan(selected, *scale, *memScale)
	switch {
	case !needMem:
		plan = exp.NewPlan(selected, plan.Scale())
	case !needPerf:
		plan = exp.NewMemPlan(selected, plan.Scale()*plan.MemScale())
	}
	cells, err := exp.RunCampaign(plan.WithMemo(store), *parallel)
	if err != nil {
		return fail(err)
	}
	results, mem, err := plan.Results(cells)
	if err != nil {
		return fail(err)
	}

	if !any || *table4 {
		fmt.Println(exp.Table4(results))
	}
	if !any || *fig10 {
		fmt.Println(exp.Fig10(results))
	}
	if !any || *fig11 {
		fmt.Println(exp.Fig11(results))
	}
	if !any || *fig12 {
		fmt.Println(exp.Fig12(mem))
	}
	return 0
}

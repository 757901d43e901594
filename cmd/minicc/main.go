// Command minicc compiles and runs a MiniC source file on the simulated
// In-Fat Pointer machine — a drop-in way to test custom programs against
// the defense, like the paper's wrapper scripts around the modified Clang
// (§A.4). A guest trap terminates the run with a one-line classification
// and a distinct exit code:
//
//	spatial  (poison/bounds detection)  exit 3
//	fuel     (-fuel budget exhausted)   exit 4
//	other    (metadata/memory trap, runtime fault)  exit 5
//	temporal (stale generation / double free, ifp-temporal mode)  exit 6
//
// Usage:
//
//	minicc [-mode baseline|subheap|wrapped|hybrid|ifp-temporal] [-fuel CYCLES] [-stats] file.c
//
// -S prints the instrumented stack IR; -disasm prints both that and the
// register-bytecode form the dispatch loop executes (lowered from the
// stack IR, with fused IFP superinstructions and per-block fuel charges).
package main

import (
	"flag"
	"fmt"
	"os"

	"infat/internal/machine"
	"infat/internal/minic"
	"infat/internal/rt"
)

func main() {
	modeFlag := flag.String("mode", "subheap", "baseline, subheap, wrapped, hybrid, or ifp-temporal")
	fuel := flag.Uint64("fuel", 0, "cycle budget; 0 = unlimited (exhaustion is a fuel trap)")
	stats := flag.Bool("stats", false, "print dynamic instruction statistics after the run")
	dumpIR := flag.Bool("S", false, "print the instrumented IR listing instead of running")
	disasm := flag.Bool("disasm", false, "print both the stack IR and the lowered register bytecode instead of running")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minicc [-mode m] [-fuel n] [-stats] [-S] [-disasm] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "minicc:", err)
		os.Exit(1)
	}

	mode, err := rt.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minicc:", err)
		os.Exit(2)
	}

	prog, err := minic.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	comp, err := minic.Compile(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *disasm {
		lowered, err := minic.DisassembleLowered(comp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("; ==== stack IR (instrumented) ====")
		fmt.Print(minic.Disassemble(comp))
		fmt.Println("\n; ==== register bytecode (lowered) ====")
		fmt.Print(lowered)
		return
	}
	if *dumpIR {
		fmt.Print(minic.Disassemble(comp))
		return
	}
	r := rt.New(mode)
	r.M.FuelLimit = *fuel
	vm, err := minic.NewVM(comp, r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exit, runErr := vm.Run()
	for _, v := range vm.Out {
		fmt.Println(v)
	}
	if *stats {
		c := r.M.C
		fmt.Fprintf(os.Stderr, "instructions: %d  cycles: %d\n", c.Instrs, c.Cycles)
		fmt.Fprintf(os.Stderr, "promote: %d (valid %d, null %d, legacy %d)\n",
			c.Promote, c.PromoteValid, c.PromoteNull, c.PromoteLegacy)
		fmt.Fprintf(os.Stderr, "ifp arithmetic: %d  bounds ld/st: %d  checks: %d\n",
			c.IfpArith(), c.IfpBoundsMem(), c.Checks)
	}
	if runErr != nil {
		class, code := classify(runErr)
		fmt.Fprintf(os.Stderr, "minicc: trap: %s: %v\n", class, runErr)
		os.Exit(code)
	}
	os.Exit(int(exit) & 0xFF)
}

// classify maps a run error to the service-wide trap taxonomy (spatial /
// temporal / fuel / other) and the exit code documented above.
func classify(err error) (string, int) {
	switch {
	case machine.IsTrap(err, machine.TrapPoison) || machine.IsTrap(err, machine.TrapBounds):
		return "spatial", 3
	case machine.IsTrap(err, machine.TrapTemporal):
		return "temporal", 6
	case machine.IsTrap(err, machine.TrapFuel):
		return "fuel", 4
	}
	return "other", 5
}

package minic

import (
	"errors"
	"strings"
	"testing"

	"infat/internal/machine"
	"infat/internal/rt"
)

// TestExecuteBudgetInfiniteLoop is the service-layer guarantee: a guest
// infinite loop terminates with the typed fuel trap — never a hang, and
// never the untyped step backstop once a budget is set.
func TestExecuteBudgetInfiniteLoop(t *testing.T) {
	const fuel = 100_000
	for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped} {
		_, _, c, err := ExecuteBudget("int main() { while (1) { } return 0; }", mode, fuel)
		if !machine.IsTrap(err, machine.TrapFuel) {
			t.Fatalf("%v: err = %v, want fuel trap", mode, err)
		}
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%v: fuel trap not wrapped in RunError: %v", mode, err)
		}
		if c.Cycles < fuel {
			t.Fatalf("%v: trapped at %d cycles, before the %d budget", mode, c.Cycles, fuel)
		}
		if c.Cycles > fuel+1000 {
			t.Fatalf("%v: trap landed %d cycles past the budget", mode, c.Cycles-fuel)
		}
	}
}

// TestExecuteBudgetUnaffectedRun: a program that fits its budget behaves
// exactly like an unlimited run, counters included.
func TestExecuteBudgetUnaffectedRun(t *testing.T) {
	const src = `int main() {
	long i;
	long acc = 0;
	for (i = 0; i < 100; i = i + 1) { acc = acc + i; }
	print(acc);
	return 0;
}`
	outFree, exitFree, err := Execute(src, rt.Subheap)
	if err != nil {
		t.Fatal(err)
	}
	out, exit, c, err := ExecuteBudget(src, rt.Subheap, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if exit != exitFree || len(out) != 1 || out[0] != outFree[0] {
		t.Fatalf("budgeted run diverged: out=%v exit=%d vs out=%v exit=%d",
			out, exit, outFree, exitFree)
	}
	if c.Instrs == 0 || c.Cycles == 0 {
		t.Fatal("counters not captured")
	}
}

// TestFuelAmortizedOvershootBounded pins the one-block grace of the
// register dispatch loop: fuel is checked once per basic block (at the
// LBlock pseudo-instruction), so a trapping run may retire up to one
// block past the budget — never more, and never a trap before the budget.
// The loop body here is a fat straight-line block, the worst case for the
// amortized check.
func TestFuelAmortizedOvershootBounded(t *testing.T) {
	const src = `int main() {
	long a = 0; long b = 1; long c = 2; long d = 3;
	while (1) {
		a = a + b; b = b + c; c = c + d; d = d + a;
		a = a ^ d; b = b | c; c = c & a; d = d + 1;
	}
	return 0;
}`
	comp, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	l, err := comp.Lowered()
	if err != nil {
		t.Fatalf("program did not lower: %v", err)
	}
	// An upper bound on the cycles one block can retire: every lowered
	// instruction ticks a small constant (ALU 1, loads/stores a cache
	// access), far below 64 cycles each.
	grace := 64 * l.MaxBlock
	for _, fuel := range []uint64{500, 1_000, 10_000, 250_000} {
		_, _, c, err := ExecuteBudget(src, rt.Subheap, fuel)
		if !machine.IsTrap(err, machine.TrapFuel) {
			t.Fatalf("fuel=%d: err = %v, want typed fuel trap", fuel, err)
		}
		if c.Cycles < fuel {
			t.Fatalf("fuel=%d: trapped at %d cycles, before the budget", fuel, c.Cycles)
		}
		if over := c.Cycles - fuel; over > grace {
			t.Fatalf("fuel=%d: overshot budget by %d cycles, amortization grace is %d (MaxBlock=%d)",
				fuel, over, grace, l.MaxBlock)
		}
	}
}

// TestFuelAmortizedNoSpuriousTrap: a run that fits its budget on the
// reference walker must also fit it on the register loop — the amortized
// check points are a subset of the reference check points, so amortization
// can delay a trap but never invent one.
func TestFuelAmortizedNoSpuriousTrap(t *testing.T) {
	const src = `int main() {
	long i; long acc = 0;
	for (i = 0; i < 500; i = i + 1) { acc = acc + i * i; }
	print(acc);
	return 0;
}`
	// Learn the exact cycle cost from an unlimited run.
	_, _, c, err := ExecuteBudget(src, rt.Subheap, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuel := range []uint64{c.Cycles + 1, c.Cycles * 2} {
		refOut, refExit, refC, refErr := ExecuteBudgetReference(src, rt.Subheap, fuel)
		regOut, regExit, regC, regErr := ExecuteBudget(src, rt.Subheap, fuel)
		if refErr != nil || regErr != nil {
			t.Fatalf("fuel=%d: spurious trap: reference %v, register %v", fuel, refErr, regErr)
		}
		if refExit != regExit || refC != regC || refOut[0] != regOut[0] {
			t.Fatalf("fuel=%d: budgeted runs diverged", fuel)
		}
	}
}

// TestFuelTypedTrapBeatsBackstop: with a fat-block loop and a large fuel
// budget, the register loop must still surface the typed TrapFuel, never
// the untyped step backstop — the backstop scales with the lowered
// program's maximum block size precisely so amortized over-charging cannot
// outrun it.
func TestFuelTypedTrapBeatsBackstop(t *testing.T) {
	const src = `int main() {
	long a = 0;
	while (1) {
		a = a + 1; a = a + 2; a = a + 3; a = a + 4;
		a = a + 5; a = a + 6; a = a + 7; a = a + 8;
		a = a ^ 1; a = a ^ 2; a = a ^ 3; a = a ^ 4;
	}
	return 0;
}`
	for _, fuel := range []uint64{100_000, 5_000_000} {
		_, _, _, err := ExecuteBudget(src, rt.Subheap, fuel)
		if !machine.IsTrap(err, machine.TrapFuel) {
			t.Fatalf("fuel=%d: err = %v, want typed fuel trap (not the step backstop)", fuel, err)
		}
	}
}

// TestExecuteBudgetSpatialTrapFirst: a spatial error inside the budget
// still surfaces as the spatial trap, not fuel.
func TestExecuteBudgetSpatialTrapFirst(t *testing.T) {
	const src = `int main() {
	char buf[8];
	long i;
	for (i = 0; i <= 8; i = i + 1) { buf[i] = 'A'; }
	return 0;
}`
	_, _, _, err := ExecuteBudget(src, rt.Subheap, 100_000_000)
	if !machine.IsTrap(err, machine.TrapPoison) && !machine.IsTrap(err, machine.TrapBounds) {
		t.Fatalf("err = %v, want spatial trap", err)
	}
	if machine.IsTrap(err, machine.TrapFuel) {
		t.Fatal("spatial error misreported as fuel")
	}
}

// Guest programs that recurse without bound. The first recurses through
// fib(2) forever; the second has no locals, so no simulated stack runs
// out before the call-depth bound.
const (
	runawayFibSrc  = `long fib(long n) { if (n < 2) { return n; } return fib(n - 1) + fib(2); } int main() { print(fib(15)); return 0; }`
	runawaySelfSrc = `void f() { f(); } int main() { f(); return 0; }`
)

// TestCallDepthTrap: unbounded guest recursion stops at maxCallDepth with
// a resource trap (an allocator-class machine trap in a *RunError) on the
// call's line, identically on the dispatch loop and the reference walker
// in every mode, instead of overflowing the Go stack and killing the
// process.
func TestCallDepthTrap(t *testing.T) {
	for _, src := range []string{runawayFibSrc, runawaySelfSrc} {
		for _, mode := range rt.Modes {
			label := mode.String() + ": " + src
			refOut, regOut, refExit, regExit, refC, regC, refErr, regErr := runBoth(src, mode)
			assertSame(t, label, refOut, regOut, refExit, regExit, refC, regC, refErr, regErr)
			var re *RunError
			if !errors.As(regErr, &re) || !machine.IsTrap(regErr, machine.TrapAlloc) {
				t.Fatalf("%s: err = %v (%T), want a *RunError wrapping an alloc trap", label, regErr, regErr)
			}
			if re.Line != 1 || !strings.Contains(regErr.Error(), "call depth exceeds 65536 frames") {
				t.Fatalf("%s: err = %v, want the call-depth trap on line 1", label, regErr)
			}
		}
	}
}

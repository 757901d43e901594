package minic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"infat/internal/machine"
	"infat/internal/rt"
)

// This file is the differential contract between the reference stack
// walker (vm.call) and the register dispatch loop over the lowered
// bytecode (vm.callReg): for every program, in every mode, the two must
// produce identical output, exit code, machine counters, and — for
// trapping programs — the identical error, line number included. The only
// sanctioned divergence is fuel exhaustion, where the lowered loop's
// per-block amortized check may overshoot the budget by up to one block
// (fuel_test.go pins how far).

// dispatchCorpus exercises every opcode and every fusion pattern: scalar
// and pointer locals, globals, strings, struct member chains (GepIdx,
// GepIdxBnd), array stores with constant and dynamic indices
// (ConstGepStore, GepDyn), pointer dereference chains (LoadPChk),
// recursion, switch dispatch (Dup/Pop), short-circuit (Mov), allocation
// wrappers, heap and temporal traps, and arithmetic faults.
var dispatchCorpus = []struct {
	name string
	src  string
}{
	{"arith", `int main() {
		long a = 7; long b = -3;
		print(a + b); print(a - b); print(a * b); print(a / b); print(a % b);
		print(a << 2); print(a >> 1); print(a & b); print(a | b); print(a ^ b);
		print(a < b); print(a <= b); print(a > b); print(a >= b);
		print(a == b); print(a != b); print(-a); print(!a); print(~a);
		return 0;
	}`},
	{"controlflow", `int main() {
		long i; long acc = 0;
		for (i = 0; i < 10; i = i + 1) {
			if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
		}
		while (acc > 10) { acc = acc - 3; }
		do { acc = acc + 100; } while (acc < 300);
		print(acc);
		return (int)acc;
	}`},
	{"shortcircuit", `long g = 0;
	int bump() { g = g + 1; return 1; }
	int main() {
		if (0 && bump()) { print(-1); }
		if (1 || bump()) { print(g); }
		if (1 && bump()) { print(g); }
		if (0 || bump()) { print(g); }
		return 0;
	}`},
	{"recursion", `long fib(long n) {
		if (n < 2) { return n; }
		return fib(n - 1) + fib(n - 2);
	}
	int main() { print(fib(15)); return 0; }`},
	{"arrays", `int main() {
		long buf[16]; long i; long acc = 0;
		for (i = 0; i < 16; i = i + 1) { buf[i] = i * i; }
		buf[3] = 42; buf[7] = buf[3] + buf[2];
		for (i = 0; i < 16; i = i + 1) { acc = acc + buf[i]; }
		print(acc);
		return 0;
	}`},
	{"pointers", `long deref(long *p) { return *p; }
	int main() {
		long x = 5;
		long *p = &x;
		*p = *p + 10;
		print(deref(p));
		long arr[4];
		long *q = arr;
		*(q + 2) = 7;
		print(arr[2]);
		print(q == arr); print((q + 1) - q);
		return 0;
	}`},
	{"structs", `struct Inner { long a; long b; };
	struct Outer { long pre; struct Inner in; char tag[8]; };
	int main() {
		struct Outer o;
		o.pre = 1;
		o.in.a = 2; o.in.b = 3;
		o.tag[0] = 'x';
		struct Outer *p = &o;
		p->in.b = p->in.a + o.pre;
		print(o.in.b); print(p->tag[0]);
		return 0;
	}`},
	{"heap", `struct Node { long val; struct Node *next; };
	int main() {
		struct Node *head = (struct Node*)malloc(sizeof(struct Node));
		head->val = 10;
		head->next = (struct Node*)malloc(sizeof(struct Node));
		head->next->val = 20;
		head->next->next = (struct Node*)0;
		long sum = 0;
		struct Node *it = head;
		while (it != (struct Node*)0) { sum = sum + it->val; it = it->next; }
		free(head->next); free(head);
		print(sum);
		return 0;
	}`},
	{"wrapper", `void *getmem(long n) { return malloc(n); }
	int main() {
		long *p = (long*)getmem(8 * sizeof(long));
		long i;
		for (i = 0; i < 8; i = i + 1) { p[i] = i; }
		print(p[7]);
		free(p);
		return 0;
	}`},
	{"memops", `int main() {
		char a[32]; char b[32];
		memset(a, 'Q', 32);
		memcpy(b, a, 32);
		print(b[0]); print(b[31]);
		char *s = "hello";
		print(s[0]); print(s[4]);
		return 0;
	}`},
	{"globals", `long counter = 3;
	long table[4];
	int main() {
		long i;
		for (i = 0; i < 4; i = i + 1) { table[i] = counter + i; }
		counter = table[3];
		print(counter);
		return 0;
	}`},
	{"switch", `int classify(long c) {
		switch (c) {
		case 'x': return 1;
		case 'y': return 2;
		case 'z':
		case 'w': return 3;
		default: return 0;
		}
	}
	int main() {
		long i; long acc = 0;
		char probe[5];
		probe[0] = 'x'; probe[1] = 'y'; probe[2] = 'z'; probe[3] = 'w'; probe[4] = '?';
		for (i = 0; i < 5; i = i + 1) { acc = acc + classify(probe[i]); }
		print(acc);
		return 0;
	}`},
	{"charcast", `int main() {
		char c = (char)300;
		print(c);
		long big = 70000;
		print((char)big);
		print((int)big);
		return 0;
	}`},
	{"overflow-stack", `int main() {
		char buf[8]; long i;
		for (i = 0; i <= 8; i = i + 1) { buf[i] = 'A'; }
		return 0;
	}`},
	{"overflow-heap", `int main() {
		long *p = (long*)malloc(4 * sizeof(long));
		p[4] = 1;
		return 0;
	}`},
	{"intra-object", `struct S { char name[8]; long secret; };
	int main() {
		struct S s;
		s.secret = 7;
		char *p = s.name;
		long i;
		for (i = 0; i <= 8; i = i + 1) { p[i] = 'B'; }
		return 0;
	}`},
	{"use-after-free", `int main() {
		long *p = (long*)malloc(2 * sizeof(long));
		p[0] = 1;
		free(p);
		print(p[0]);
		return 0;
	}`},
	{"double-free", `int main() {
		long *p = (long*)malloc(sizeof(long));
		free(p);
		free(p);
		return 0;
	}`},
	{"div-zero", `int main() {
		long z = 0;
		print(5 / z);
		return 0;
	}`},
	{"free-wild", `int main() {
		free((long*)12345);
		return 0;
	}`},
}

// DispatchCorpus returns the corpus's sources by name, for the external
// lowering-totality test.
func DispatchCorpus() map[string]string {
	m := make(map[string]string, len(dispatchCorpus))
	for _, tc := range dispatchCorpus {
		m[tc.name] = tc.src
	}
	return m
}

// runBoth executes src on both loops, unlimited fuel.
func runBoth(src string, mode rt.Mode) (refOut, regOut []int64, refExit, regExit int64,
	refC, regC machine.Counters, refErr, regErr error) {
	refOut, refExit, refC, refErr = ExecuteBudgetReference(src, mode, 0)
	regOut, regExit, regC, regErr = ExecuteBudget(src, mode, 0)
	return
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func assertSame(t *testing.T, label string,
	refOut, regOut []int64, refExit, regExit int64,
	refC, regC machine.Counters, refErr, regErr error) {
	t.Helper()
	if errString(refErr) != errString(regErr) {
		t.Fatalf("%s: error diverged:\n reference: %v\n register:  %v", label, refErr, regErr)
	}
	if refExit != regExit {
		t.Fatalf("%s: exit diverged: reference %d, register %d", label, refExit, regExit)
	}
	if len(refOut) != len(regOut) {
		t.Fatalf("%s: output length diverged: reference %v, register %v", label, refOut, regOut)
	}
	for i := range refOut {
		if refOut[i] != regOut[i] {
			t.Fatalf("%s: out[%d] diverged: reference %d, register %d", label, i, refOut[i], regOut[i])
		}
	}
	if refC != regC {
		t.Fatalf("%s: counters diverged:\n reference %+v\n register  %+v", label, refC, regC)
	}
}

// TestDispatchEquivalence is the headline contract: corpus × every mode
// (including ifp-temporal), reference vs register loop, everything equal —
// trap lines and machine counters included.
func TestDispatchEquivalence(t *testing.T) {
	for _, tc := range dispatchCorpus {
		for _, mode := range rt.Modes {
			label := fmt.Sprintf("%s/%v", tc.name, mode)
			refOut, regOut, refExit, regExit, refC, regC, refErr, regErr := runBoth(tc.src, mode)
			assertSame(t, label, refOut, regOut, refExit, regExit, refC, regC, refErr, regErr)
		}
	}
}

// TestDispatchEquivalenceTestdata runs the checked-in guest programs
// through both loops.
func TestDispatchEquivalenceTestdata(t *testing.T) {
	for _, file := range []string{"overflow.c", "list.c", "switchsum.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range rt.Modes {
			label := fmt.Sprintf("%s/%v", file, mode)
			refOut, regOut, refExit, regExit, refC, regC, refErr, regErr := runBoth(string(src), mode)
			assertSame(t, label, refOut, regOut, refExit, regExit, refC, regC, refErr, regErr)
		}
	}
}

// TestDispatchEquivalenceConcurrent shares one interned program (and its
// one lowered form) across NumCPU goroutines mixing both loops — under
// -race this pins the read-only sharing contract of the Lowered cache.
func TestDispatchEquivalenceConcurrent(t *testing.T) {
	src := dispatchCorpus[4].src // arrays
	refOut, refExit, refC, refErr := ExecuteBudgetReference(src, rt.Subheap, 0)
	if refErr != nil {
		t.Fatal(refErr)
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var out []int64
				var exit int64
				var c machine.Counters
				var err error
				if (w+rep)%2 == 0 {
					out, exit, c, err = ExecuteBudget(src, rt.Subheap, 0)
				} else {
					out, exit, c, err = ExecuteBudgetReference(src, rt.Subheap, 0)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d rep %d: %v", w, rep, err)
					return
				}
				if exit != refExit || c != refC || len(out) != len(refOut) || out[0] != refOut[0] {
					errs <- fmt.Errorf("worker %d rep %d diverged", w, rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDispatchSuperinstructionsRetire proves the fusion actually fires on
// the corpus: a struct+pointer+array program's lowered main must contain
// every named superinstruction, and main has no branch that skips code,
// so a full run retires each of them at least once under an instrumented
// mode.
func TestDispatchSuperinstructionsRetire(t *testing.T) {
	src := `struct S { long a; long b; };
	int main() {
		struct S s;
		struct S *p = &s;
		s.a = 1;
		p->b = 2;
		long arr[4]; long i;
		arr[2] = 5;
		for (i = 0; i < 4; i = i + 1) { arr[i] = i; }
		long *q = &arr[1];
		print(*q + s.a + p->b);
		return 0;
	}`
	comp, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.Acquire(rt.Subheap)
	defer rt.Release(r)
	vm, err := NewVM(comp, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	l, err := Lower(comp)
	if err != nil {
		t.Fatal(err)
	}
	lowered := map[string]bool{}
	for _, in := range l.Funcs[comp.FuncIdx["main"]].Code {
		lowered[lopNames[in.Op]] = true
	}
	for _, want := range []string{"loadpchk", "gepidxbnd", "constgepstore", "localload", "localloadp"} {
		if !lowered[want] {
			t.Errorf("superinstruction %q not in the lowered main; lowered: %v", want, lowered)
		}
	}
}

// TestDispatchGepIdxLowering covers the LGepIdx fallback peephole. The
// compiler always pairs a sub-carrying OpGep with an immediate OpBnd (so
// LGepIdxBnd forms); a bare pair split — the shape a future pass could
// produce — must still fuse the ifpadd+ifpidx half.
func TestDispatchGepIdxLowering(t *testing.T) {
	comp := &Compiled{
		Funcs: []*Func{{
			Name: "main",
			Code: []Insn{
				{Op: OpConst, Imm: 0},
				{Op: OpGep, Imm: 8, Sub: 2},
				{Op: OpPop},
				{Op: OpConst, Imm: 0},
				{Op: OpRet, Sub: 1},
			},
		}},
		FuncIdx: map[string]int{"main": 0},
	}
	l, err := Lower(comp)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, in := range l.Funcs[0].Code {
		if in.Op == LGepIdx {
			found = true
			if in.Imm != 8 || in.Sub != 2 {
				t.Fatalf("gepidx operands not carried: %+v", in)
			}
		}
		if in.Op == LGep {
			t.Fatalf("sub-carrying gep left unfused: %+v", in)
		}
	}
	if !found {
		t.Fatal("bare sub-carrying gep did not lower to gepidx")
	}
}

// TestDispatchLoweringIsCached pins one immutable lowered program per
// *Compiled: repeated Lowered() calls return the same instance, and the
// compile cache lowers it at compile time.
func TestDispatchLoweringIsCached(t *testing.T) {
	comp, err := compileCached("int main() { return 3; }")
	if err != nil {
		t.Fatal(err)
	}
	if comp.lowered == nil {
		t.Fatal("cached program has no lowered form (compile-time lowering missing)")
	}
	l1, err := comp.Lowered()
	if err != nil {
		t.Fatal(err)
	}
	if l2, _ := comp.Lowered(); l2 != l1 {
		t.Fatal("Lowered() returned a different instance on the second call")
	}
}

// TestDispatchFallbackOnUnloweredProgram: a hand-built Compiled that
// defeats the depth analysis must refuse to lower, and NewVM must refuse
// it with the lowering error — the dispatch loop is the only executor.
// The program itself is sound: the test-only reference walker still runs
// it.
func TestDispatchFallbackOnUnloweredProgram(t *testing.T) {
	// Inconsistent depth at a merge point: one path pushes twice, the
	// other once, before they join.
	comp := &Compiled{
		Funcs: []*Func{{
			Name: "main",
			Ret:  nil,
			Code: []Insn{
				{Op: OpConst, Imm: 1}, // 0: push
				{Op: OpJnz, Imm: 4},   // 1: pop, jump to 4
				{Op: OpConst, Imm: 7}, // 2: push (depth 1 path)
				{Op: OpConst, Imm: 8}, // 3: push (depth 2 at pc 4)
				{Op: OpConst, Imm: 9}, // 4: merge: depth 0 vs 2
				{Op: OpRet, Sub: 1},   // 5
			},
		}},
		FuncIdx: map[string]int{"main": 0},
	}
	l, lowerErr := comp.Lowered()
	if l != nil || lowerErr == nil {
		t.Fatalf("depth-inconsistent program lowered anyway: (%v, %v)", l, lowerErr)
	}
	r := rt.Acquire(rt.Subheap)
	defer rt.Release(r)
	if vm, err := NewVM(comp, r); vm != nil || !errors.Is(err, lowerErr) {
		t.Fatalf("NewVM = (%v, %v), want the lowering error %v", vm, err, lowerErr)
	}
	ref := &VM{R: r, C: comp, maxSteps: 50_000_000}
	exit, err := ref.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if exit != 9 {
		t.Fatalf("reference walker returned %d, want 9", exit)
	}
}

// classifyBudget buckets an error for the relaxed fuel comparison. Once
// the reference run traps on its budget, the register loop may legally
// retire up to one more block before its amortized check fires — and
// anything can happen inside that grace block (a later fuel trap, a
// spatial trap the reference never reached, or completion). The converse
// is strict: the register loop's check points are a subset of the
// reference's, so it can never budget-trap where the reference did not.
func classifyBudget(err error) string {
	switch {
	case err == nil:
		return "ok"
	case machine.IsTrap(err, machine.TrapFuel):
		return "fuel"
	case strings.Contains(errString(err), "step budget exhausted"):
		return "backstop"
	default:
		return "other:" + errString(err)
	}
}

// TestDispatchEquivalenceUnderFuel sweeps fuel budgets across the corpus:
// non-budget outcomes must match exactly; where the reference run traps
// on fuel, the register loop may trap on fuel too or finish within its
// one-block grace — nothing else.
func TestDispatchEquivalenceUnderFuel(t *testing.T) {
	fuels := []uint64{1, 17, 300, 5_000, 1_000_000}
	for _, tc := range dispatchCorpus {
		for _, fuel := range fuels {
			refOut, refExit, _, refErr := ExecuteBudgetReference(tc.src, rt.Subheap, fuel)
			regOut, regExit, _, regErr := ExecuteBudget(tc.src, rt.Subheap, fuel)
			label := fmt.Sprintf("%s/fuel=%d", tc.name, fuel)
			rk, gk := classifyBudget(refErr), classifyBudget(regErr)
			if rk == "fuel" || rk == "backstop" {
				continue // register outcome confined to the one-block grace
			}
			if gk == "fuel" || gk == "backstop" {
				t.Fatalf("%s: register loop trapped on budget (%s) where reference did not (%v)",
					label, gk, refErr)
			}
			if errString(refErr) != errString(regErr) || refExit != regExit ||
				len(refOut) != len(regOut) {
				t.Fatalf("%s: diverged: ref (%v, %d, %v) vs reg (%v, %d, %v)",
					label, refOut, refExit, refErr, regOut, regExit, regErr)
			}
		}
	}
}

// TestAllocBudgetDispatch is the CI alloc-regression guard for the inner
// register dispatch loop (NewVM + Run on a pooled runtime, the interned
// path stripped of the Execute plumbing): the register file lives in the
// shared pooled operand arena, so lowering adds no per-run allocations —
// the loop measures 12 allocs/run, two below the stack walker, because
// register windows are sized up front instead of growing the operand
// stack mid-run.
func TestAllocBudgetDispatch(t *testing.T) {
	if !rt.ReuseSystems() {
		t.Skip("requires pooled runtimes")
	}
	comp, err := compileCached(internSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r := rt.Acquire(rt.Subheap)
		defer rt.Release(r)
		vm, err := NewVM(comp, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	allocs := testing.AllocsPerRun(50, run)
	const budget = 14
	if allocs > budget {
		t.Fatalf("register-dispatch inner loop = %.1f allocs/run, budget %d", allocs, budget)
	}
}

// FuzzDispatchEquivalence feeds arbitrary sources and budgets through
// both loops in every mode. Programs that fail to parse/compile are
// equally interesting (the error must be identical); programs that run
// must agree on everything, with the sanctioned one-block fuel grace.
// Every program Parse and Compile accept must also lower: the compile
// pipeline reports a refusal as an error on both sides of the
// differential, where it would pass unseen.
func FuzzDispatchEquivalence(f *testing.F) {
	for _, tc := range dispatchCorpus {
		f.Add(tc.src, uint64(0))
		f.Add(tc.src, uint64(700))
	}
	f.Add("int main() { while (1) { } return 0; }", uint64(5000))
	f.Add(runawayFibSrc, uint64(0))
	f.Add(runawaySelfSrc, uint64(0))
	f.Fuzz(func(t *testing.T, src string, fuel uint64) {
		if len(src) > 4096 {
			return
		}
		fuel = fuel % 1_000_000
		// Syntax and compile errors are Parse's and Compile's own
		// verdicts; any other pipeline error is rechecked against them.
		var se *SyntaxError
		var ce *CompileError
		if _, err := compileCached(src); err != nil && !errors.As(err, &se) && !errors.As(err, &ce) {
			if prog, perr := Parse(src); perr == nil {
				if _, cerr := Compile(prog); cerr == nil {
					t.Fatalf("accepted program did not lower: %v", err)
				}
			}
		}
		for _, mode := range rt.Modes {
			refOut, refExit, refC, refErr := ExecuteBudgetReference(src, mode, fuel)
			regOut, regExit, regC, regErr := ExecuteBudget(src, mode, fuel)
			rk, gk := classifyBudget(refErr), classifyBudget(regErr)
			if rk == "fuel" || rk == "backstop" {
				continue // register outcome confined to the one-block grace
			}
			if gk == "fuel" || gk == "backstop" {
				t.Fatalf("%v: register budget trap (%s) without reference one (%v)", mode, gk, refErr)
			}
			if errString(refErr) != errString(regErr) {
				t.Fatalf("%v: error diverged:\n reference: %v\n register:  %v", mode, refErr, regErr)
			}
			if refExit != regExit || refC != regC || len(refOut) != len(regOut) {
				t.Fatalf("%v: diverged: ref (exit %d, %+v) vs reg (exit %d, %+v)",
					mode, refExit, refC, regExit, regC)
			}
			for i := range refOut {
				if refOut[i] != regOut[i] {
					t.Fatalf("%v: out[%d]: %d vs %d", mode, i, refOut[i], regOut[i])
				}
			}
		}
	})
}

// Dispatch benchmarks: the same interned workload on the reference stack
// walker vs the register loop.
func benchDispatch(b *testing.B, refOnly bool) {
	if _, err := compileCached(internSrc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []int64
		var exit int64
		var err error
		if refOnly {
			out, exit, _, err = ExecuteBudgetReference(internSrc, rt.Subheap, 0)
		} else {
			out, exit, _, err = ExecuteBudget(internSrc, rt.Subheap, 0)
		}
		if err != nil || exit != 0 || len(out) != 1 {
			b.Fatalf("run failed: out=%v exit=%d err=%v", out, exit, err)
		}
	}
}

func BenchmarkDispatchReference(b *testing.B) { benchDispatch(b, true) }
func BenchmarkDispatchRegister(b *testing.B)  { benchDispatch(b, false) }

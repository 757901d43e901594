package minic

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infat/internal/machine"
	"infat/internal/rt"
)

// run executes src in the given mode and returns output/exit/err.
func run(t *testing.T, src string, mode rt.Mode) ([]int64, int64, error) {
	t.Helper()
	return Execute(src, mode)
}

// mustRun fails the test on any error.
func mustRun(t *testing.T, src string, mode rt.Mode) ([]int64, int64) {
	t.Helper()
	out, exit, err := run(t, src, mode)
	if err != nil {
		t.Fatalf("%v mode: %v", mode, err)
	}
	return out, exit
}

// allModes runs src in baseline + both instrumented modes and checks the
// outputs agree.
func allModes(t *testing.T, src string) ([]int64, int64) {
	t.Helper()
	out, exit := mustRun(t, src, rt.Baseline)
	for _, m := range []rt.Mode{rt.Subheap, rt.Wrapped} {
		o2, e2 := mustRun(t, src, m)
		if e2 != exit || len(o2) != len(out) {
			t.Fatalf("%v mode diverged: exit %d vs %d, out %v vs %v", m, e2, exit, o2, out)
		}
		for i := range out {
			if o2[i] != out[i] {
				t.Fatalf("%v mode output[%d] = %d, want %d", m, i, o2[i], out[i])
			}
		}
	}
	return out, exit
}

func TestArithmetic(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int a = 6;
	int b = 7;
	return a * b + 10 / 2 - 3 % 2 + (1 << 4) + (256 >> 4) - (5 & 3) - (5 | 2) - (5 ^ 1);
}`)
	// 42 + 5 - 1 + 16 + 16 - 1 - 7 - 4 = 66
	if exit != 66 {
		t.Errorf("exit = %d, want 66", exit)
	}
}

func TestControlFlow(t *testing.T) {
	out, _ := allModes(t, `
int main() {
	int i;
	int sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { continue; }
		if (i == 9) { break; }
		sum = sum + i;
	}
	while (sum > 16) { sum = sum - 1; }
	print(sum);
	return 0;
}`)
	if len(out) != 1 || out[0] != 16 { // 1+3+5+7 = 16; while(>16) never fires
		t.Errorf("out = %v, want [16]", out)
	}
}

func TestShortCircuit(t *testing.T) {
	out, _ := allModes(t, `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
	int a = 0 && bump();
	int b = 1 || bump();
	int c = 1 && bump();
	print(g);
	print(a + b * 10 + c * 100);
	return 0;
}`)
	if out[0] != 1 {
		t.Errorf("g = %d, want 1 (short circuit failed)", out[0])
	}
	if out[1] != 110 {
		t.Errorf("abc = %d, want 110", out[1])
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	_, exit := allModes(t, `
long fib(long n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return (int)fib(15); }`)
	if exit != 610 {
		t.Errorf("fib(15) = %d, want 610", exit)
	}
}

func TestArraysAndPointers(t *testing.T) {
	out, _ := allModes(t, `
int main() {
	long arr[10];
	long i;
	long *p = arr;
	for (i = 0; i < 10; i = i + 1) { arr[i] = i * i; }
	print(arr[7]);
	print(*(p + 3));
	print(p[9] - p[8]);
	long *q = &arr[5];
	print(*q);
	print(q - p);
	return 0;
}`)
	want := []int64{49, 9, 17, 25, 5}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, out[i], w)
		}
	}
}

func TestStructsAndMembers(t *testing.T) {
	out, _ := allModes(t, `
struct Point { long x; long y; };
struct Rect { struct Point a; struct Point b; };
int main() {
	struct Rect r;
	r.a.x = 1; r.a.y = 2; r.b.x = 10; r.b.y = 20;
	struct Point *p = &r.b;
	print(p->x + p->y);
	print(r.a.x + r.a.y);
	return 0;
}`)
	if out[0] != 30 || out[1] != 3 {
		t.Errorf("out = %v", out)
	}
}

func TestHeapMallocFree(t *testing.T) {
	out, _ := allModes(t, `
struct Node { long val; struct Node *next; };
int main() {
	struct Node *head = (struct Node*)malloc(sizeof(struct Node));
	struct Node *second = (struct Node*)malloc(sizeof(struct Node));
	head->val = 1;
	head->next = second;
	second->val = 2;
	second->next = (struct Node*)0;
	long sum = 0;
	struct Node *cur = head;
	while (cur != (struct Node*)0) {
		sum = sum + cur->val;
		cur = cur->next;
	}
	print(sum);
	free(second);
	free(head);
	return 0;
}`)
	if out[0] != 3 {
		t.Errorf("sum = %d, want 3", out[0])
	}
}

func TestStringsAndMem(t *testing.T) {
	out, _ := allModes(t, `
int main() {
	char buf[16];
	char *msg = "hi!";
	memset(buf, 0, 16);
	memcpy(buf, msg, 4);
	print(buf[0]);
	print(buf[1]);
	print(buf[2]);
	print(buf[3]);
	return 0;
}`)
	want := []int64{'h', 'i', '!', 0}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, out[i], w)
		}
	}
}

func TestGlobalsInitAndPointers(t *testing.T) {
	out, _ := allModes(t, `
long counter = 5;
long table[8];
long *gp;
int main() {
	table[3] = 30;
	gp = &table[3];
	counter = counter + *gp;
	print(counter);
	return 0;
}`)
	if out[0] != 35 {
		t.Errorf("counter = %d, want 35", out[0])
	}
}

func TestCharSemantics(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	char c = 'A';
	char buf[4];
	buf[0] = c + 1;
	return buf[0];
}`)
	if exit != 'B' {
		t.Errorf("exit = %d, want %d", exit, 'B')
	}
}

// --- detection tests: the instrumented modes must trap, baseline not ---

// detects asserts that src runs clean in baseline and traps spatially in
// both instrumented modes.
func detects(t *testing.T, src string) {
	t.Helper()
	if _, _, err := run(t, src, rt.Baseline); err != nil {
		t.Fatalf("baseline trapped: %v", err)
	}
	for _, m := range []rt.Mode{rt.Subheap, rt.Wrapped} {
		_, _, err := run(t, src, m)
		if err == nil {
			t.Fatalf("%v mode missed the spatial error", m)
		}
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%v mode error = %v, want RunError", m, err)
		}
		if !machine.IsTrap(re.Err, machine.TrapPoison) && !machine.IsTrap(re.Err, machine.TrapBounds) {
			t.Fatalf("%v mode error = %v, want a spatial trap", m, err)
		}
	}
}

func TestDetectHeapOverflowWrite(t *testing.T) {
	detects(t, `
int main() {
	long *buf = (long*)malloc(8 * sizeof(long));
	long i;
	for (i = 0; i <= 8; i = i + 1) { buf[i] = i; }
	return 0;
}`)
}

func TestDetectStackOverflowWrite(t *testing.T) {
	detects(t, `
int main() {
	char buf[12];
	int i;
	for (i = 0; i < 13; i = i + 1) { buf[i] = 'A'; }
	return 0;
}`)
}

func TestDetectHeapOverRead(t *testing.T) {
	detects(t, `
int main() {
	int *data = (int*)malloc(10 * sizeof(int));
	int sum = 0;
	int i;
	for (i = 0; i < 11; i = i + 1) { sum = sum + data[i]; }
	return sum;
}`)
}

func TestDetectUnderwrite(t *testing.T) {
	detects(t, `
int main() {
	long buf[4];
	long *p = &buf[0];
	*(p - 1) = 7;
	return 0;
}`)
}

func TestDetectIntraObjectOverflow(t *testing.T) {
	// Listing 1 of the paper: overflow from `vulnerable` into `sensitive`
	// stays inside the object — only subobject-granularity protection
	// catches it.
	detects(t, `
struct S {
	char vulnerable[12];
	char sensitive[12];
};
int main() {
	struct S s;
	char *p = s.vulnerable;
	int i;
	s.sensitive[0] = 'S';
	for (i = 0; i <= 12; i = i + 1) { p[i] = 'A'; }
	return 0;
}`)
}

func TestDetectIntraObjectThroughHeapPointer(t *testing.T) {
	// The same intra-object overflow via a heap object and a pointer that
	// round-trips through memory (forcing a promote + layout-table
	// narrowing on reload).
	detects(t, `
struct S {
	char vulnerable[12];
	char sensitive[12];
};
char *gv;
int main() {
	struct S *s = (struct S*)malloc(sizeof(struct S));
	gv = s->vulnerable;
	char *p = gv;
	int i;
	for (i = 0; i <= 12; i = i + 1) { p[i] = 'A'; }
	return 0;
}`)
}

func TestDetectUseAfterMetadataInvalidation(t *testing.T) {
	// Free clears the object metadata, so a promote through a stale
	// pointer poisons it (§3: temporal errors that invalidate metadata).
	src := `
long *gv;
int main() {
	long *p = (long*)malloc(4 * sizeof(long));
	gv = p;
	free(p);
	long *q = gv;
	*q = 1;
	return 0;
}`
	for _, m := range []rt.Mode{rt.Subheap, rt.Wrapped} {
		_, _, err := run(t, src, m)
		if err == nil {
			t.Fatalf("%v mode missed the stale-metadata dereference", m)
		}
	}
}

func TestNoFalsePositives(t *testing.T) {
	// Exact-boundary loops, one-past-the-end pointers never dereferenced,
	// legal member access: must run clean in every mode.
	allModes(t, `
struct S { char a[12]; char b[12]; };
int main() {
	struct S s;
	char *p = s.a;
	char *end = p + 12;
	int n = 0;
	while (p != end) { *p = 'x'; p = p + 1; n = n + 1; }
	s.b[11] = 'y';
	long *heap = (long*)malloc(16 * sizeof(long));
	long i;
	for (i = 0; i < 16; i = i + 1) { heap[i] = i; }
	free(heap);
	print(n);
	return 0;
}`)
}

func TestPointerEqualityIgnoresTags(t *testing.T) {
	// Pointers to distinct subobjects of one object carry different tag
	// fields; comparisons must still work on addresses.
	out, _ := allModes(t, `
struct S { long a; long b; };
int main() {
	struct S s;
	long *pa = &s.a;
	long *pb = &s.b;
	print(pa == pb);
	print(pa != pb);
	print(pb - pa);
	return 0;
}`)
	if out[0] != 0 || out[1] != 1 || out[2] != 1 {
		t.Errorf("out = %v", out)
	}
}

func TestInstrumentationCountersLookSane(t *testing.T) {
	src := `
struct Node { long v; struct Node *next; };
struct Node *head;
int main() {
	int i;
	for (i = 0; i < 50; i = i + 1) {
		struct Node *n = (struct Node*)malloc(sizeof(struct Node));
		n->v = i;
		n->next = head;
		head = n;
	}
	long sum = 0;
	struct Node *cur = head;
	while (cur != (struct Node*)0) { sum = sum + cur->v; cur = cur->next; }
	print(sum);
	return 0;
}`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(rt.Subheap)
	vm, err := NewVM(comp, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.Out[0] != 49*50/2 {
		t.Errorf("sum = %d", vm.Out[0])
	}
	c := r.M.C
	if c.Promote == 0 || c.PromoteValid == 0 {
		t.Error("no promotes executed")
	}
	if c.IfpIdx == 0 {
		t.Error("no subobject-index updates")
	}
	if c.Checks == 0 {
		t.Error("no bounds checks")
	}
	if r.Stats.HeapObjects != 50 {
		t.Errorf("heap objects = %d, want 50", r.Stats.HeapObjects)
	}
	if r.Stats.HeapWithLT != 50 {
		t.Errorf("heap objects with layout table = %d, want 50", r.Stats.HeapWithLT)
	}
}

func TestBaselineEmitsNoIFPInstructions(t *testing.T) {
	src := `int main() { int a[4]; a[0] = 1; return a[0]; }`
	prog, _ := Parse(src)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(rt.Baseline)
	vm, err := NewVM(comp, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if n := r.M.C.IfpTotal(); n != 0 {
		t.Errorf("baseline executed %d IFP instructions", n)
	}
}

// --- parser / compiler error paths ---

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int main() { return 0 }`,                                    // missing ;
		`int main() { int 3x; }`,                                     // bad identifier
		`struct S { int a; }; struct S;`,                             // stray declaration
		`int main() { foo(); return 0; }`,                            // unknown function
		`int main() { return x; }`,                                   // unknown identifier
		`int f(int a, int a) { return 0; } int main() { return 0; }`, // dup param
		`int main() { break; }`,                                      // break outside loop
		`int main() { struct T *p; return 0; }`,                      // unknown struct
		`int x; int x; int main() { return 0; }`,                     // dup global
		`int main() { int y; int y; return 0; }`,                     // dup local
		`int main() { return 1; } int main() { }`,                    // dup function
		`int notmain() { return 0; }`,                                // no main
		`int main() { char buf[0]; return 0; }`,                      // zero-size array
		`int main() { "unterminated`,                                 // lex error
		`int main() { int a; a = 5 +; return a; }`,                   // expr error
		`int main() { malloc(1, 2); return 0; }`,                     // arity
		`int main() { int s; s.x = 1; return 0; }`,                   // member of scalar
		`int main() { int i; return i[0]; }`,                         // index scalar
		`int main() { int *p; return p->x; }`,                        // -> non-struct
		`int main() { 5 = 6; return 0; }`,                            // bad lvalue
		`int main() { void *p; return *p == 0; }`,                    // void deref...
	}
	for i, src := range cases {
		if _, _, err := Execute(src, rt.Baseline); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

// TestGlobalInitializerErrors: a global initializer that is not an
// integer literal, or that initializes an aggregate, is rejected by
// Compile itself (so the compile cache never keeps such a program as a
// success), with the message and line a run reports.
func TestGlobalInitializerErrors(t *testing.T) {
	cases := []struct {
		src  string
		line int
		msg  string
	}{
		{"long g = 1 + 2;\nint main() { return 0; }", 1, "global initializers must be integer literals"},
		{"long x;\nlong g = -3;\nint main() { return 0; }", 2, "global initializers must be integer literals"},
		{"long x = 1;\n\nlong a[2] = 5;\nint main() { return 0; }", 3, "cannot initialize aggregate globals"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		_, err = Compile(prog)
		var ce *CompileError
		if !errors.As(err, &ce) || ce.Line != tc.line || ce.Msg != tc.msg {
			t.Errorf("Compile(%q) = %v, want line %d %q", tc.src, err, tc.line, tc.msg)
			continue
		}
		if _, _, _, err := ExecuteBudget(tc.src, rt.Subheap, 0); err == nil || err.Error() != ce.Error() {
			t.Errorf("ExecuteBudget(%q) = %v, want %v", tc.src, err, ce)
		}
	}
}

func TestCommentsAndLiterals(t *testing.T) {
	_, exit := allModes(t, `
// line comment
/* block
   comment */
int main() {
	int hex = 0x10;   // 16
	char nl = '\n';   // 10
	char z = '\0';
	return hex + nl + z; // 26
}`)
	if exit != 26 {
		t.Errorf("exit = %d, want 26", exit)
	}
}

func TestCompoundAssignAndIncrement(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int a = 10;
	a += 5;
	a -= 2;
	a *= 3;
	a /= 2;
	++a;
	a++;
	return a;
}`)
	if exit != 21 { // ((10+5-2)*3)/2 = 19 +1 +1
		t.Errorf("exit = %d, want 21", exit)
	}
}

func TestMultiDimensionalArrays(t *testing.T) {
	out, _ := allModes(t, `
int main() {
	long grid[4][6];
	long i;
	long j;
	for (i = 0; i < 4; i = i + 1) {
		for (j = 0; j < 6; j = j + 1) { grid[i][j] = i * 10 + j; }
	}
	print(grid[3][5]);
	print(grid[0][0]);
	return 0;
}`)
	if out[0] != 35 || out[1] != 0 {
		t.Errorf("out = %v", out)
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	prog, _ := Parse(`int main() { while (1) { } return 0; }`)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(rt.Baseline)
	vm, err := NewVM(comp, r)
	if err != nil {
		t.Fatal(err)
	}
	vm.maxSteps = 10000
	if _, err := vm.Run(); err == nil {
		t.Error("runaway loop not stopped")
	}
}

func TestDoWhile(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int n = 0;
	do { n = n + 1; } while (n < 5);
	int m = 100;
	do { m = m + 1; } while (0);
	return n * 100 + (m - 100);
}`)
	if exit != 501 {
		t.Errorf("exit = %d, want 501", exit)
	}
}

func TestDoWhileBreakContinue(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int n = 0;
	int i = 0;
	do {
		i = i + 1;
		if (i % 2 == 0) { continue; }
		if (i > 9) { break; }
		n = n + i;
	} while (i < 100);
	return n;
}`)
	if exit != 1+3+5+7+9 {
		t.Errorf("exit = %d, want 25", exit)
	}
}

func TestSwitch(t *testing.T) {
	out, _ := allModes(t, `
int classify(int c) {
	switch (c) {
	case 'a':
	case 'e':
		return 1;
	case 'z':
		return 2;
	default:
		return 0;
	}
}
int main() {
	print(classify('a'));
	print(classify('e'));
	print(classify('z'));
	print(classify('q'));
	return 0;
}`)
	want := []int64{1, 1, 2, 0}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, out[i], w)
		}
	}
}

func TestSwitchFallthroughAndBreak(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 4; i = i + 1) {
		switch (i) {
		case 0:
			acc = acc + 1;
			// fall through
		case 1:
			acc = acc + 10;
			break;
		case 2:
			acc = acc + 100;
			break;
		}
	}
	return acc; // i=0: +11, i=1: +10, i=2: +100, i=3: nothing
}`)
	if exit != 121 {
		t.Errorf("exit = %d, want 121", exit)
	}
}

func TestSwitchNoDefaultNoMatch(t *testing.T) {
	_, exit := allModes(t, `
int main() {
	int x = 9;
	switch (x) {
	case 1: return 1;
	case 2: return 2;
	}
	return 42;
}`)
	if exit != 42 {
		t.Errorf("exit = %d, want 42", exit)
	}
}

func TestSwitchStateMachineWithPointers(t *testing.T) {
	// A switch-driven byte scanner over an instrumented buffer: exercises
	// the new control flow on the checked data path.
	out, _ := allModes(t, `
int main() {
	char buf[16];
	memset(buf, 0, 16);
	buf[0] = 'a'; buf[1] = '1'; buf[2] = ' '; buf[3] = 'b';
	int letters = 0;
	int digits = 0;
	int other = 0;
	int i = 0;
	do {
		char c = buf[i];
		switch (c) {
		case 'a':
		case 'b':
			letters = letters + 1;
			break;
		case '1':
			digits = digits + 1;
			break;
		default:
			other = other + 1;
		}
		i = i + 1;
	} while (i < 4);
	print(letters); print(digits); print(other);
	return 0;
}`)
	if out[0] != 2 || out[1] != 1 || out[2] != 1 {
		t.Errorf("out = %v", out)
	}
}

func TestSwitchErrors(t *testing.T) {
	bad := []string{
		`int main() { switch (1) { int x; case 1: break; } return 0; }`, // stmt before case
		`int main() { switch (1) { case 1: break; default: break; default: break; } return 0; }`,
		`int main() { switch (1) { case y: break; } return 0; }`, // non-literal label
	}
	for i, src := range bad {
		if _, _, err := Execute(src, rt.Baseline); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDisassemble(t *testing.T) {
	prog, err := Parse(`
struct S { char a[8]; long b; };
void *w(long n) { return malloc(n); }
int main() {
	struct S *s = (struct S*)w(sizeof(struct S));
	struct S loc;
	loc.b = 2;
	s->b = 1;
	char *p = s->a;
	free(s);
	return (int)loc.b;
}`)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	asm := Disassemble(comp)
	for _, want := range []string{
		"allocation wrappers: w",
		"ifpadd", "ifpidx", "ifpbnd", "promote",
		"REGISTERED", "main:", "malloc",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q\n%s", want, asm)
		}
	}
}

func TestTestdataPrograms(t *testing.T) {
	cases := []struct {
		file      string
		wantTrap  bool
		wantPrint []int64
	}{
		{"overflow.c", true, nil},
		{"list.c", false, []int64{99 * 100 / 2}},
		{"switchsum.c", false, []int64{11*'x' + 11*'y' + 10*'z'}},
	}
	for _, tc := range cases {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []rt.Mode{rt.Subheap, rt.Wrapped, rt.Hybrid} {
			out, _, err := Execute(string(src), mode)
			if tc.wantTrap {
				if err == nil {
					t.Errorf("%s/%v: no trap", tc.file, mode)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%v: %v", tc.file, mode, err)
				continue
			}
			for i, w := range tc.wantPrint {
				if out[i] != w {
					t.Errorf("%s/%v: out[%d] = %d, want %d", tc.file, mode, i, out[i], w)
				}
			}
		}
		// Baseline never traps, even on the vulnerable program.
		if _, _, err := Execute(string(src), rt.Baseline); err != nil {
			t.Errorf("%s baseline: %v", tc.file, err)
		}
	}
}

// TestHugeSizesTrapAlloc: sizes within 16 bytes of 2^64 end in the typed
// allocator trap. Rounding them to 16 bytes wrapped: in Baseline the huge
// local array took no stack, so b shared its address and printed 5 (the
// instrumented modes reject the array's layout table first), and
// malloc(-1) returned a chunk with an empty payload whose next neighbour
// started 16 bytes above it; the instrumented modes leaked that chunk and
// failed on the global-table size cap with an untyped trap.
func TestHugeSizesTrapAlloc(t *testing.T) {
	const hugeLocal = `int main() { long a[2305843009213693951]; long b[2]; a[0] = 5; print(b[0]); return 0; }`
	const hugeMalloc = `int main() { char *p = malloc(-1); char *q = malloc(16); print(q - p); return 0; }`
	if out, _, err := run(t, hugeLocal, rt.Baseline); !machine.IsTrap(err, machine.TrapAlloc) {
		t.Errorf("baseline huge local: out %v, err %v; want a typed alloc trap", out, err)
	}
	for _, mode := range rt.Modes {
		if out, _, err := run(t, hugeMalloc, mode); !machine.IsTrap(err, machine.TrapAlloc) {
			t.Errorf("%v malloc(-1): out %v, err %v; want a typed alloc trap", mode, out, err)
		}
	}
}

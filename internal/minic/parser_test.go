package minic

import (
	"errors"
	"testing"

	"infat/internal/rt"
)

// TestTruncatedProgramsError: inputs cut off mid-construct must produce
// syntax errors, never run the parser's cursor off the token slice
// (found by FuzzRunC on the bare keyword "struct").
func TestTruncatedProgramsError(t *testing.T) {
	for _, src := range []string{
		"struct", "struct S", "struct S {", "int", "int main", "int main(",
		"int main() {", "int main() { return", "(", "int main() { int b[",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted a truncated program", src)
		}
	}
}

// TestVoidValueRejected: a void call used where a value is required must
// be a compile error, not a VM operand-stack underflow (found by
// FuzzRunC on `p[0] % free(p)`).
func TestVoidValueRejected(t *testing.T) {
	progs := []string{
		`int main() { char *p = malloc(8); return p[0] % free(p); }`,
		`int main() { char *p = malloc(8); if (free(p)) { return 1; } return 0; }`,
		`int main() { char *p = malloc(8); int x; x = free(p); return x; }`,
		`int main() { char *p = malloc(8); print(free(p)); return 0; }`,
	}
	for _, src := range progs {
		if _, _, err := Execute(src, rt.Subheap); err == nil {
			t.Errorf("void-in-expression accepted: %s", src)
		} else if _, ok := errAs[*CompileError](err); !ok {
			t.Errorf("err = %v (%T), want compile-time CompileError for: %s", err, err, src)
		}
	}
}

// errAs is a tiny errors.As wrapper keeping the table test readable.
func errAs[T error](err error) (T, bool) {
	var target T
	ok := errors.As(err, &target)
	return target, ok
}

// TestLiteralsAreNotPunctuation: the parser matches punctuation and
// keywords by token code, so a char or string literal never stands in for
// one, whatever its text. Matching by text ran every program below.
func TestLiteralsAreNotPunctuation(t *testing.T) {
	for _, src := range []string{
		`int main '(' ')' '{' return 4 ';' '}'`,
		`int main() { return 7 ';' }`,
		`int main() { "return" 9; }`,
		`int main() { long i = 0; "while" (i < 3) { i = i + 1; } return i; }`,
		`int main() { long x; x '=' 5; return x; }`,
		`int main() { return '(' long ')' 6; }`,
		`int main() { long a[2]; a '[' 0 ']' = 1; return a[0]; }`,
		`struct S '{' long x; }; int main() { return 0; }`,
		`int main() { return "sizeof"(long); }`,
		`int main() { long i = 0; do { i = i + 1; } "while" (i < 3); return i; }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted a literal as punctuation or a keyword", src)
		} else if _, ok := errAs[*SyntaxError](err); !ok {
			t.Errorf("Parse(%q) = %v (%T), want a *SyntaxError", src, err, err)
		}
	}
	// The converse: a '-' char literal is a case label, not a minus sign.
	out, exit, err := Execute(`int main() { long c = 45; switch (c) { case '-': return 1; } return 0; }`, rt.Subheap)
	if err != nil || exit != 1 || len(out) != 0 {
		t.Errorf("case '-': exit %d, out %v, err %v; want exit 1", exit, out, err)
	}
}

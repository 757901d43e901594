package minic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"
	"testing"

	"infat/internal/juliet"
	"infat/internal/minic"
)

// TestFrontEndGolden pins the MiniC front end's output over the corpus
// TestLoweringTotal builds, one line per program: digests of the token
// stream, the stack-IR listing (`minicc -S`) and the lowered listing
// (`minicc -disasm`), and a digest of the Parse/Compile outcome (the error
// text, or "ok") of every prefix of the source that ends at a whitespace
// byte. The prefixes reach most of the parser's and compiler's error
// paths with the corpus's own text. A change to the lexer, parser,
// compiler or lowerer that is meant to be invisible must pass this golden
// unedited.
func TestFrontEndGolden(t *testing.T) {
	srcs := frontEndCorpus(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		src := srcs[name]
		fmt.Fprintf(&b, "%s lex=%s", name, digestOf(func(w io.Writer) {
			toks, err := minic.Lex(src)
			if err != nil {
				fmt.Fprintln(w, err)
			}
			for _, tk := range toks {
				fmt.Fprintf(w, "%d %q %d %d\n", tk.Kind, tk.Text, tk.Num, tk.Line)
			}
		}))
		comp, err := compileFresh(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lowered, err := minic.DisassembleLowered(comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, " stack=%s lowered=%s", digestString(minic.Disassemble(comp)), digestString(lowered))
		n := 0
		fmt.Fprintf(&b, " prefixes=%s", digestOf(func(w io.Writer) {
			for i := 0; i < len(src); i++ {
				switch src[i] {
				case ' ', '\t', '\r', '\n':
					n++
					if _, err := compileFresh(src[:i+1]); err != nil {
						fmt.Fprintln(w, err)
					} else {
						fmt.Fprintln(w, "ok")
					}
				}
			}
		}))
		fmt.Fprintf(&b, "/%d\n", n)
	}
	minic.CheckGolden(t, "frontend.golden", b.String())
}

// compileFresh is Parse then Compile, bypassing the compile cache.
func compileFresh(src string) (*minic.Compiled, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return minic.Compile(prog)
}

func digestOf(write func(io.Writer)) string {
	h := sha256.New()
	write(h)
	return shortSum(h)
}

func digestString(s string) string {
	h := sha256.New()
	io.WriteString(h, s)
	return shortSum(h)
}

func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// julietFrontEnd is the corpus BenchmarkFrontEnd compiles: the Juliet
// spatial and CWE-415/416 programs, the typical cold /v1/run request.
func julietFrontEnd() []string {
	var srcs []string
	for _, c := range append(juliet.Generate(), juliet.GenerateCWE415416()...) {
		srcs = append(srcs, c.Src)
	}
	return srcs
}

// BenchmarkFrontEnd times Parse, Compile and Lower of one Juliet program
// per op, cycling through the corpus, with no compile cache in the way.
func BenchmarkFrontEnd(b *testing.B) {
	srcs := julietFrontEnd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := compileFresh(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := minic.Lower(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLex times the lexer alone over the same corpus.
func BenchmarkLex(b *testing.B) {
	srcs := julietFrontEnd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minic.Lex(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzLex holds the byte-switch lexer to the table-scan reference it
// replaced: on any input, identical token slices or identical errors.
func FuzzLex(f *testing.F) {
	for _, src := range frontEndCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := minic.LexDiff(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestAllocBudgetFrontEnd is the CI alloc-regression guard for the cold
// front end that every /v1/run miss pays: Parse, Compile and Lower of one
// fixed Juliet program. It cost 174 allocs when the lexer grew a fresh
// token slice and the compiler and lowerer grew every buffer from empty;
// with pooled working buffers it measures 119, nearly all of them AST
// nodes and the compiled program itself.
func TestAllocBudgetFrontEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	var src string
	for _, c := range juliet.Generate() {
		if c.Name == "CWE121_stack_direct_good" {
			src = c.Src
		}
	}
	if src == "" {
		t.Fatal("Juliet case CWE121_stack_direct_good not generated")
	}
	allocs := testing.AllocsPerRun(50, func() {
		comp, err := compileFresh(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := minic.Lower(comp); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 125
	if allocs > budget {
		t.Fatalf("Parse+Compile+Lower = %.1f allocs/program, budget %d", allocs, budget)
	}
}

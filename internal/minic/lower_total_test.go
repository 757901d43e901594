package minic_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infat/internal/juliet"
	"infat/internal/minic"
)

// frontEndCorpus is every MiniC program the repository carries or
// generates, by name: the dispatch corpus, testdata/*.c, bench/testdata/*.c
// and the three Juliet generators. Each of them must compile.
func frontEndCorpus(t testing.TB) map[string]string {
	t.Helper()
	srcs := minic.DispatchCorpus()
	for _, pattern := range []string{"../../testdata/*.c", "../../bench/testdata/*.c"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no programs (%v)", pattern, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[strings.TrimPrefix(filepath.ToSlash(f), "../../")] = string(src)
		}
	}
	for _, c := range append(juliet.Generate(), juliet.GenerateCWE415416()...) {
		srcs["juliet/"+c.Name] = c.Src
	}
	for _, c := range juliet.GenerateTemporal() {
		srcs["temporal/"+c.Name] = c.Src
	}
	return srcs
}

// TestLoweringTotal: every program that Parse and Compile accept lowers.
// The compile pipeline reports a lowering refusal as an error and the VM
// has no other executor, so a refusal would reject a valid program.
func TestLoweringTotal(t *testing.T) {
	srcs := frontEndCorpus(t)
	for name, src := range srcs {
		prog, err := minic.Parse(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		comp, err := minic.Compile(prog)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := comp.Lowered(); err != nil {
			t.Errorf("%s: accepted program did not lower: %v", name, err)
		}
	}
	t.Logf("%d programs", len(srcs))
}

package minic

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the disassembly golden files")

// goldenSrc is a fixed program chosen to exercise every listing feature:
// struct member chains (gepidxbnd with sub indices), constant and dynamic
// array indexing (constgepstore, gepdyn), pointer dereference chains
// (loadpchk), an allocation wrapper, a loop (multiple basic blocks with
// distinct fuel charges), and string data.
const goldenSrc = `struct Point { long x; long y; };
struct Shape { char name[8]; struct Point tl; struct Point br; };

void *mkshape(long n) { return malloc(n); }

long area(struct Shape *s) {
	return (s->br.x - s->tl.x) * (s->br.y - s->tl.y);
}

int main() {
	struct Shape *sh = (struct Shape*)mkshape(sizeof(struct Shape));
	sh->tl.x = 1; sh->tl.y = 2;
	sh->br.x = 11; sh->br.y = 22;
	sh->name[0] = 'r';
	long dims[2];
	dims[0] = sh->br.x - sh->tl.x;
	dims[1] = sh->br.y - sh->tl.y;
	long i; long acc = 0;
	for (i = 0; i < 2; i = i + 1) { acc = acc + dims[i]; }
	print(area(sh));
	print(acc);
	free(sh);
	return 0;
}`

// CheckGolden compares got against testdata/<name>, rewriting the file
// under -update.
func CheckGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/minic` to create)", err)
	}
	if got == string(want) {
		return
	}
	// Report the differing lines, not both files: the front-end golden
	// has one line per corpus program.
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	var diff strings.Builder
	shown := 0
	for i := 0; i < max(len(g), len(w)) && shown < 20; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&diff, "line %d:\n  got:  %s\n  want: %s\n", i+1, gl, wl)
			shown++
		}
	}
	t.Fatalf("%s drifted from golden file (%d lines, want %d):\n%s(run with -update to accept)",
		name, len(g), len(w), diff.String())
}

// TestDisassembleGolden pins the stack-IR listing (`minicc -S`).
func TestDisassembleGolden(t *testing.T) {
	comp, err := compileCached(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	CheckGolden(t, "disasm_stack.golden", Disassemble(comp))
}

// TestDisassembleLoweredGolden pins the register-bytecode listing
// (`minicc -disasm`): register operands, superinstruction annotations,
// and each basic block's amortized fuel charge.
func TestDisassembleLoweredGolden(t *testing.T) {
	comp, err := compileCached(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	listing, err := DisassembleLowered(comp)
	if err != nil {
		t.Fatalf("golden program did not lower: %v", err)
	}
	CheckGolden(t, "disasm_lowered.golden", listing)
}

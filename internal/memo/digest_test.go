package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden digest vectors")

// goldenVectors enumerates the pinned digest vectors. Any change to the
// canonical encoding — framing, domain prefixes, digestVersion — changes
// these hashes and must be deliberate: bump digestVersion and regenerate
// with `go test ./internal/memo -run Golden -update`.
func goldenVectors() []struct{ label, digest string } {
	var g Digester
	g.Init(DomainCell)
	g.Raw(WorkloadDigest("treeadd", "olden", "v1"))
	g.Str("ifp")
	g.Bool(false)
	g.U32(1)
	g.U64(20)
	cellish := g.Sum()

	g.Init(DomainCell)
	g.Str(strings.Repeat("spill-me-", 64)) // > buf: exercises the heap spill
	spilled := g.Sum()

	return []struct{ label, digest string }{
		{"source/empty", SourceDigest("").String()},
		{"source/hello", SourceDigest("int main() { return 0; }").String()},
		{"workload/treeadd", WorkloadDigest("treeadd", "olden", "v1").String()},
		{"workload/suite-swap", WorkloadDigest("olden", "treeadd", "v1").String()},
		{"run/basic", RunDigest(SourceDigest("x"), "ifp", 1_000_000).String()},
		{"run/mode", RunDigest(SourceDigest("x"), "ifp-temporal", 1_000_000).String()},
		{"run/fuel", RunDigest(SourceDigest("x"), "ifp", 1_000_001).String()},
		{"chaos/basic", ChaosDigest("ifp", "tagflip", 0, "v1").String()},
		{"chaos/seed", ChaosDigest("ifp", "tagflip", 7, "v1").String()},
		{"cell/composed", cellish.String()},
		{"cell/spilled", spilled.String()},
		{"footprint/basic", FootprintDigest(WorkloadDigest("treeadd", "olden", "v1"), "subheap", 4).String()},
	}
}

func TestGoldenDigestVectors(t *testing.T) {
	path := filepath.Join("testdata", "memo_digests.golden")
	var sb strings.Builder
	for _, v := range goldenVectors() {
		fmt.Fprintf(&sb, "%s %s\n", v.label, v.digest)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden vectors missing (run with -update to generate): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("digest vectors drifted from %s — a key-schema change must bump digestVersion and regenerate deliberately.\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestFramingUnambiguous pins the anti-ambiguity properties the framing
// rules exist for: field boundaries and domains are part of the hash.
func TestFramingUnambiguous(t *testing.T) {
	strPair := func(a, b string) Digest {
		var g Digester
		g.Init(DomainCell)
		g.Str(a)
		g.Str(b)
		return g.Sum()
	}
	if strPair("ab", "c") == strPair("a", "bc") {
		t.Error(`("ab","c") and ("a","bc") must digest differently`)
	}
	if WorkloadDigest("x", "y", "v1") == ChaosDigest("x", "y", 0, "v1") {
		t.Error("different domains with overlapping fields must not collide")
	}
	var cell Digester
	cell.Init(DomainCell)
	cell.Raw(WorkloadDigest("x", "y", "v1"))
	cell.Str("subheap")
	cell.U64(4)
	if cell.Sum() == FootprintDigest(WorkloadDigest("x", "y", "v1"), "subheap", 4) {
		t.Error("footprint and cell domains with identical fields must not collide")
	}
	var a, b Digester
	a.Init(DomainCell)
	a.U32(5)
	b.Init(DomainCell)
	b.U64(5)
	if a.Sum() == b.Sum() {
		t.Error("U32(5) and U64(5) must digest differently (fixed widths)")
	}
}

// TestSpillMatchesReference checks that encodings which overflow the
// stack buffer hash identically to a reference encoding built by hand:
// the spill is a transparent continuation, not a different format.
func TestSpillMatchesReference(t *testing.T) {
	long := strings.Repeat("abcdefgh", 64) // 512 bytes, far past the buffer

	frame := func(parts ...any) []byte {
		var out []byte
		for _, p := range parts {
			switch v := p.(type) {
			case string:
				out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
				out = append(out, v...)
			case uint64:
				out = binary.LittleEndian.AppendUint64(out, v)
			default:
				t.Fatalf("unhandled part %T", p)
			}
		}
		return out
	}

	var g Digester
	g.Init(DomainCell)
	g.Str(long)
	g.U64(42)
	got := g.Sum()
	want := Digest(sha256.Sum256(frame(DomainCell, long, uint64(42))))
	if got != want {
		t.Fatalf("spilled encoding hash mismatch: got %s want %s", got, want)
	}

	// And a small encoding against the same reference framing.
	g.Init(DomainCell)
	g.Str("x")
	g.U64(1)
	got = g.Sum()
	want = Digest(sha256.Sum256(frame(DomainCell, "x", uint64(1))))
	if got != want {
		t.Fatalf("small encoding hash mismatch: got %s want %s", got, want)
	}
}

// TestAllocBudgetDigest pins digest composition at zero heap
// allocations — it runs on the memo hit path for every cell.
func TestAllocBudgetDigest(t *testing.T) {
	src := SourceDigest("int main() { return 0; }")
	if n := testing.AllocsPerRun(200, func() {
		_ = RunDigest(src, "ifp", 1_000_000)
	}); n != 0 {
		t.Errorf("RunDigest allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		_ = ChaosDigest("ifp", "tagflip", 3, "v1")
	}); n != 0 {
		t.Errorf("ChaosDigest allocates %v allocs/op, want 0", n)
	}
	w := WorkloadDigest("treeadd", "olden", "v1")
	if n := testing.AllocsPerRun(200, func() {
		_ = FootprintDigest(w, "subheap", 4)
	}); n != 0 {
		t.Errorf("FootprintDigest allocates %v allocs/op, want 0", n)
	}
}

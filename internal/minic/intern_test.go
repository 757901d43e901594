package minic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infat/internal/machine"
	"infat/internal/memo"
	"infat/internal/rt"
)

const internSrc = `int main() {
	long i;
	long acc = 0;
	long buf[8];
	for (i = 0; i < 8; i = i + 1) { buf[i] = i * i; }
	for (i = 0; i < 8; i = i + 1) { acc = acc + buf[i]; }
	print(acc);
	return 0;
}`

// compileCached compiles src through the process-wide compile cache, as
// ExecuteBudget does.
func compileCached(src string) (*Compiled, error) { return intern(programs, src, compileSource) }

func TestInternerCompileOnce(t *testing.T) {
	s := memo.NewStore(4)
	c1, err := intern(s, internSrc, compileSource)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := intern(s, internSrc, compileSource)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second call returned a different *Compiled: source recompiled")
	}
	if st := s.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 miss, 1 hit", st)
	}
}

func TestInternerCachesErrors(t *testing.T) {
	s := memo.NewStore(4)
	const bad = "int main() { return 0"
	c1, err1 := intern(s, bad, compileSource)
	if err1 == nil || c1 != nil {
		t.Fatalf("intern(bad) = (%v, %v), want compile error", c1, err1)
	}
	c2, err2 := intern(s, bad, compileSource)
	if c2 != nil || err2 != err1 {
		t.Fatalf("negative entry not cached: second err %v, first %v", err2, err1)
	}
	if got := s.Stats().Entries; got != 1 {
		t.Fatalf("Entries = %d, want 1 (errors occupy an entry)", got)
	}
}

func TestInternerLRUEviction(t *testing.T) {
	s := memo.NewStore(2)
	src := func(i int) string { return fmt.Sprintf("int main() { return %d; }", i) }
	c0, err := intern(s, src(0), compileSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := intern(s, src(1), compileSource); err != nil {
		t.Fatal(err)
	}
	// Touch 0 so 1 becomes the LRU victim when 2 is inserted.
	if c, err := intern(s, src(0), compileSource); err != nil || c != c0 {
		t.Fatalf("intern(0) = (%p, %v), want cached %p", c, err, c0)
	}
	if _, err := intern(s, src(2), compileSource); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Entries; got != 2 {
		t.Fatalf("Entries = %d, want cap 2", got)
	}
	// 0 must still be the cached instance; 1 was evicted (a fresh call
	// works, it just recompiles — eviction never breaks correctness).
	if c, err := intern(s, src(0), compileSource); err != nil || c != c0 {
		t.Fatalf("entry 0 evicted out of LRU order: (%p, %v), want %p", c, err, c0)
	}
	if _, err := intern(s, src(1), compileSource); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Evictions; got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
}

// TestInternerConcurrent hammers one cache from many goroutines over a
// small source set and asserts every caller observes exactly one
// *Compiled per source — the canonical-instance guarantee that maximizes
// sharing. Run under -race this also proves the store's locking
// discipline.
func TestInternerConcurrent(t *testing.T) {
	s := memo.NewStore(8)
	srcs := []string{
		"int main() { return 1; }",
		"int main() { return 2; }",
		internSrc,
		"int main() { return 0", // negative entry races too
	}
	const workers = 16
	got := make([][]*Compiled, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Compiled, len(srcs))
			for rep := 0; rep < 50; rep++ {
				for i, src := range srcs {
					c, _ := intern(s, src, compileSource)
					if rep == 0 {
						got[w][i] = c
					} else if c != got[w][i] {
						t.Errorf("worker %d src %d: instance changed across calls", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range srcs {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("src %d: worker %d saw %p, worker 0 saw %p", i, w, got[w][i], got[0][i])
			}
		}
	}
}

// TestInternerCoalescesColdSource: goroutines racing on one cold source
// coalesce onto a single compile — one miss, one build, one *Compiled.
func TestInternerCoalescesColdSource(t *testing.T) {
	s := memo.NewStore(4)
	var builds atomic.Int32
	build := func(src string) (*Compiled, error) {
		builds.Add(1)
		return compileSource(src)
	}
	const workers = 16
	got := make([]*Compiled, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			c, err := intern(s, internSrc, build)
			if err != nil {
				t.Error(err)
			}
			got[w] = c
		}(w)
	}
	close(start)
	wg.Wait()
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("source compiled %d times, want once", n)
	}
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d saw %p, worker 0 saw %p", w, got[w], got[0])
		}
	}
}

// TestInternerPanicLeavesKeyUsable: a compile that panics wakes every
// caller coalesced onto it with an error, drops its pending entry, and
// the next call for the source compiles afresh without blocking.
func TestInternerPanicLeavesKeyUsable(t *testing.T) {
	s := memo.NewStore(4)
	var follower *memo.Entry
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compile panic did not reach the leader's caller")
			}
		}()
		intern(s, internSrc, func(src string) (*Compiled, error) {
			// A concurrent caller joins the pending entry mid-compile.
			e, leader := s.StartOrJoin(memo.SourceDigest(src), memo.KindProgram)
			if leader {
				t.Error("joined a pending entry as its leader")
			}
			follower = e
			panic("compile panicked")
		})
	}()
	select {
	case <-follower.Ready():
	default:
		t.Fatal("follower left blocked on the abandoned entry")
	}
	if p := follower.Value().(*program); p.comp != nil || p.err == nil || follower.Kept() {
		t.Fatalf("follower served (%v, %v, kept %v), want a dropped error", p.comp, p.err, follower.Kept())
	}
	done := make(chan struct{})
	var c *Compiled
	var err error
	go func() {
		defer close(done)
		c, err = intern(s, internSrc, compileSource)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("call after an abandoned compile blocked")
	}
	if err != nil || c == nil {
		t.Fatalf("recompile = (%v, %v), want a program", c, err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses (abandoned + recompile) and 1 entry", st)
	}
}

// runFresh is ExecuteBudget without the compile cache: parse and compile
// this call's own *Compiled, run it on a non-pooled runtime.
func runFresh(t *testing.T, src string, mode rt.Mode) ([]int64, int64, machine.Counters, error) {
	t.Helper()
	comp, err := compileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	r := rt.New(mode)
	vm, err := NewVM(comp, r)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := vm.Run()
	return vm.Out, exit, r.M.C, err
}

// TestFreshVsInternedEquivalence is the determinism contract for program
// interning: a shared, interned *Compiled must produce output, exit code,
// and modeled counters identical to a private compilation of the same
// source, in every mode, on both the first and a repeated (cache-hit)
// run.
func TestFreshVsInternedEquivalence(t *testing.T) {
	for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped} {
		fo, fe, fc, ferr := runFresh(t, internSrc, mode)
		if ferr != nil {
			t.Fatalf("%v: fresh run: %v", mode, ferr)
		}
		for rep := 0; rep < 3; rep++ {
			io, ie, ic, ierr := ExecuteBudget(internSrc, mode, 0)
			if ierr != nil {
				t.Fatalf("%v rep %d: interned run: %v", mode, rep, ierr)
			}
			if ie != fe || ic != fc || len(io) != len(fo) {
				t.Fatalf("%v rep %d: interned (exit %d, counters %+v) vs fresh (exit %d, counters %+v)",
					mode, rep, ie, ic, fe, fc)
			}
			for i := range fo {
				if io[i] != fo[i] {
					t.Fatalf("%v rep %d: out[%d] = %d, fresh %d", mode, rep, i, io[i], fo[i])
				}
			}
		}
	}
}

// TestInternedCompiledSharedAcrossModes pins that ExecuteBudget keys the
// cache by source only: all modes share one *Compiled, so a 5-mode grid
// cell compiles its workload exactly once.
func TestInternedCompiledSharedAcrossModes(t *testing.T) {
	src := "int main() { print(41); return 0; }"
	c1, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped} {
		if _, _, _, err := ExecuteBudget(src, mode, 0); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
	c2, err := compileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("running across modes replaced the interned *Compiled")
	}
}

// TestAllocBudgetExecuteBudget is the CI alloc-regression guard for the
// interpreter hot path: a steady-state ExecuteBudget (program interned,
// runtime pooled, VM arenas warm after the first iteration) must stay
// within budget. Compiling per run cost 84 allocs/op; the compile cache
// and the zero-alloc interpreter cut the compile and per-call churn out,
// and this test keeps them out.
func TestAllocBudgetExecuteBudget(t *testing.T) {
	if !rt.ReuseSystems() {
		t.Skip("requires pooled runtimes")
	}
	// Warm: compile-cache entry, pool, and any lazy process state.
	if _, _, _, err := ExecuteBudget(internSrc, rt.Subheap, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := ExecuteBudget(internSrc, rt.Subheap, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: well under the PR 4 baseline of 84 and the pre-bytecode
	// ceiling of 40. The register dispatch loop measures 13 allocs/run
	// steady state (the stack walker needed 15 — its operand stack grew
	// mid-run where register windows are sized up front); the remaining
	// allocs are per-run by design (VM + its Out/heapObjs slices and
	// per-run guest-object bookkeeping), not per-call or per-access churn.
	const budget = 16
	if allocs > budget {
		t.Fatalf("ExecuteBudget steady state = %.1f allocs/run, budget %d", allocs, budget)
	}
}

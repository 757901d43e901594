package juliet

import (
	"runtime"
	"testing"

	"infat/internal/rt"
)

// TestReuseEquivalenceSummary: the Juliet suite rides the pooled MiniC
// execution path (minic.ExecuteBudget); its rendered summary must be
// byte-identical with pooling on and off, serially and at NumCPU
// workers. Run under -race in CI.
func TestReuseEquivalenceSummary(t *testing.T) {
	was := rt.ReuseSystems()
	defer func() {
		rt.SetReuseSystems(was)
		rt.DefaultPool.Drain()
	}()

	cases := Generate()
	report := func(reuse bool, workers int) string {
		rt.DefaultPool.Drain()
		rt.SetReuseSystems(reuse)
		return Run(cases, rt.Subheap, workers).Report()
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		fresh := report(false, workers)
		reused := report(true, workers)
		if fresh != reused {
			t.Errorf("workers=%d: pooled summary differs from fresh\n--- fresh ---\n%s\n--- pooled ---\n%s",
				workers, fresh, reused)
		}
	}
}

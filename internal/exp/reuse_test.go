package exp

import (
	"runtime"
	"testing"

	"infat/internal/rt"
)

// withReuse runs fn under an explicit reuse setting, restoring the
// process default afterwards and draining the shared pool so no runtime
// acquired under one setting leaks into the other measurement.
func withReuse(on bool, fn func()) {
	was := rt.ReuseSystems()
	defer func() {
		rt.SetReuseSystems(was)
		rt.DefaultPool.Drain()
	}()
	rt.DefaultPool.Drain()
	rt.SetReuseSystems(on)
	fn()
}

// TestReuseEquivalenceExperimentReport: the rendered experiment report
// must be byte-identical with pooling on and off, serially and at
// NumCPU workers — the end-to-end determinism contract of the pooled
// lifecycle. Run under -race in CI so reset-state leaks surface as
// races or diverging bytes.
func TestReuseEquivalenceExperimentReport(t *testing.T) {
	ws := smallWorkloads(t)
	report := func(reuse bool, workers int) string {
		var out string
		withReuse(reuse, func() {
			res, err := RunSet(ws, 1, workers)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := RunMemSet(ws, 2, workers)
			if err != nil {
				t.Fatal(err)
			}
			out = Report(res, mem)
		})
		return out
	}

	for _, workers := range []int{1, runtime.NumCPU()} {
		fresh := report(false, workers)
		reused := report(true, workers)
		if fresh != reused {
			t.Errorf("workers=%d: pooled report differs from fresh\n--- fresh ---\n%s\n--- pooled ---\n%s",
				workers, fresh, reused)
		}
	}
}

// TestReuseEquivalenceChaosReport: the fault-injection campaign — which
// deliberately corrupts runtimes before releasing them — must also be
// byte-identical with pooling on and off at any parallelism.
func TestReuseEquivalenceChaosReport(t *testing.T) {
	report := func(reuse bool, workers int) string {
		var out string
		withReuse(reuse, func() {
			out, _ = ChaosReport(1, workers)
		})
		return out
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		fresh := report(false, workers)
		reused := report(true, workers)
		if fresh != reused {
			t.Errorf("workers=%d: pooled chaos report differs from fresh", workers)
		}
	}
}

// TestReuseEquivalenceAblations: the configured-runtime paths (ablation
// knobs, cost-model overrides, hybrid's allocator selection) must leave
// no residue in pooled runtimes.
func TestReuseEquivalenceAblations(t *testing.T) {
	report := func(reuse bool) string {
		var out string
		withReuse(reuse, func() {
			for _, section := range []func(scale int) Plan{AblationPlan, ASICPlan, HybridPlan} {
				s, err := RunReport(section(1), runtime.NumCPU())
				if err != nil {
					t.Fatal(err)
				}
				out += s
			}
		})
		return out
	}
	if fresh, reused := report(false), report(true); fresh != reused {
		t.Error("pooled ablation/ASIC/hybrid reports differ from fresh")
	}
}

package rt

import (
	"fmt"
	"sync"
	"testing"

	"infat/internal/machine"
)

// exerciseRuntime drives one representative guest program against r —
// globals, locals, heap objects of every reachable scheme, promotes,
// subobject narrowing, frees, layout interning — and returns a digest of
// every guest-visible observable: a checksum of loaded values, the full
// counter set, runtime stats, and the memory footprint.
func exerciseRuntime(t *testing.T, r *Runtime) string {
	t.Helper()
	guest := exerciseGuest(t, r)
	return fmt.Sprintf("%s counters=%+v stats=%+v footprint=%d", guest, r.M.C, r.Stats, r.Footprint())
}

// exerciseGuest runs exerciseRuntime's program and returns the part of
// its digest the guest computes: the loaded-value checksum and the
// interned layout address.
func exerciseGuest(t *testing.T, r *Runtime) string {
	t.Helper()
	g, err := r.RegisterGlobal(nodeT)
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.AllocLocal(nodeT)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	var objs []Obj
	for i := 0; i < 24; i++ {
		o, err := r.Malloc(nodeT, 1)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
		if err := r.Store(o.P, uint64(i)*3+1, 8, o.B); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []Obj{g, l} {
		if err := r.Store(o.P, 0x55, 8, o.B); err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range objs {
		q, qb := r.Promote(o.P)
		v, err := r.Load(q, 8, qb)
		if err != nil {
			t.Fatal(err)
		}
		sum = sum*31 + v
		if i%3 == 0 {
			if err := r.Free(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A second allocation wave reuses freed chunks/slots, exercising the
	// free lists the reset must have emptied.
	for i := 0; i < 8; i++ {
		o, err := r.MallocBytes(48)
		if err != nil {
			t.Fatal(err)
		}
		sum = sum*31 + o.P
	}
	addr, _, err := r.LayoutOf(nodeT)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("sum=%#x layout=%#x", sum, addr)
}

// dirty runs a different, messier program so the pre-reset state shares
// nothing with the exercise pattern, then corrupts machine state the way
// chaos scenarios do.
func dirty(t *testing.T, r *Runtime) {
	t.Helper()
	for i := 0; i < 40; i++ {
		o, err := r.MallocBytes(uint64(16 + i*8))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Store(o.P, ^uint64(i), 8, o.B); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.StackRaw(1 << 12); err != nil {
		t.Fatal(err)
	}
	r.M.NoPromote = true
	r.M.NoNarrow = true
	r.FootprintOnly()
	r.M.FuelLimit = 123
	r.M.Cost.MissPenalty = 999
	r.ForceGlobalTable = true
	r.ExplicitChecks = true
	r.InjectAllocFault(50)
}

// TestResetRestoresNewInvariants: for every mode, a dirtied-then-reset
// runtime must be observationally identical to a fresh one over a full
// guest program — same checksums, counters, stats, layout addresses, and
// footprint. This is the determinism contract the pool relies on.
func TestResetRestoresNewInvariants(t *testing.T) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			want := exerciseRuntime(t, New(mode))

			r := New(Wrapped) // start in a different mode on purpose
			dirty(t, r)
			r.Reset(mode)
			if got := exerciseRuntime(t, r); got != want {
				t.Errorf("reused run diverges from fresh\nfresh:  %s\nreused: %s", want, got)
			}

			// A second reuse cycle must hold too.
			r.Reset(mode)
			if got := exerciseRuntime(t, r); got != want {
				t.Errorf("second reuse diverges from fresh\nfresh:  %s\nreused: %s", got, want)
			}
		})
	}
}

// TestResetClearsInjectedFaultsAndAblations: every knob chaos or the
// ablations may have flipped is back at its default after Reset.
func TestResetClearsInjectedFaultsAndAblations(t *testing.T) {
	r := New(Subheap)
	dirty(t, r)
	r.Reset(Subheap)
	m := r.M
	if m.NoPromote || m.NoNarrow || m.Untimed || m.FuelLimit != 0 {
		t.Errorf("machine flags survive reset: NoPromote=%v NoNarrow=%v Untimed=%v FuelLimit=%d",
			m.NoPromote, m.NoNarrow, m.Untimed, m.FuelLimit)
	}
	if m.Cost != machine.DefaultCost {
		t.Errorf("cost model survives reset: %+v", m.Cost)
	}
	if r.ForceGlobalTable || r.ExplicitChecks {
		t.Error("ablation flags survive reset")
	}
	if r.Footprint() != 0 {
		t.Errorf("footprint after reset = %d, want 0", r.Footprint())
	}
	if c := (machine.Counters{}); m.C != c {
		t.Errorf("counters after reset = %+v, want zero", m.C)
	}
	// The injected alloc fault must be disarmed: 60 allocations succeed.
	for i := 0; i < 60; i++ {
		if _, err := r.MallocBytes(32); err != nil {
			t.Fatalf("alloc %d after reset: %v (injected fault leaked?)", i, err)
		}
	}
}

// TestUntimedRuntimeComesBackTimed: in every mode, an untimed run (a
// Figure-12 memory cell, which skips the L1D model) matches a timed run
// of the same program in everything but Cycles, and the runtime released
// after it comes back from Acquire timed: the L1D statistics move on its
// next access.
func TestUntimedRuntimeComesBackTimed(t *testing.T) {
	defer SetReuseSystems(ReuseSystems())
	SetReuseSystems(true)
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			timed := New(mode)
			want := exerciseGuest(t, timed)

			DefaultPool.Drain()
			r := Acquire(mode)
			r.M.Untimed = true
			if got := exerciseGuest(t, r); got != want {
				t.Errorf("untimed guest result %s, timed %s", got, want)
			}
			if st := r.M.L1D.Stats(); st.Accesses != 0 {
				t.Errorf("untimed run made %d L1D accesses", st.Accesses)
			}
			uc, tc := r.M.C, timed.M.C
			uc.Cycles, tc.Cycles = 0, 0
			if uc != tc || r.Stats != timed.Stats || r.Footprint() != timed.Footprint() {
				t.Errorf("untimed run differs beyond the L1D\nuntimed: %+v %+v %d\ntimed:   %+v %+v %d",
					uc, r.Stats, r.Footprint(), tc, timed.Stats, timed.Footprint())
			}
			Release(r)

			r2 := Acquire(mode)
			defer Release(r2)
			if r2 != r {
				t.Fatal("pool did not hand the released runtime back")
			}
			o, err := r2.MallocBytes(16)
			if err != nil {
				t.Fatal(err)
			}
			if err := r2.Store(o.P, 1, 8, o.B); err != nil {
				t.Fatal(err)
			}
			if st := r2.M.L1D.Stats(); st.Accesses == 0 {
				t.Fatal("L1D statistics did not move after Acquire: the untimed state survived Reset")
			}
		})
	}
}

// TestResetSwitchesMode: Reset adopts the requested mode, including the
// Baseline special case (no global table registered with the machine).
func TestResetSwitchesMode(t *testing.T) {
	r := New(Subheap)
	if r.M.GlobalBase == 0 {
		t.Fatal("instrumented runtime has no global table")
	}
	r.Reset(Baseline)
	if r.Mode() != Baseline || r.Instrumented() {
		t.Error("reset did not adopt baseline mode")
	}
	if r.M.GlobalBase != 0 || r.M.GlobalCap != 0 {
		t.Error("baseline runtime kept a global table registration")
	}
	r.Reset(Wrapped)
	if r.Mode() != Wrapped || r.M.GlobalBase == 0 {
		t.Error("reset did not restore instrumented state")
	}
}

// TestPoolRecyclesAndCounts: the pool hands a released runtime back out
// (reset), counts hits/misses/releases, and honors the escape hatch.
func TestPoolRecyclesAndCounts(t *testing.T) {
	defer SetReuseSystems(true)
	SetReuseSystems(true)
	p := NewPool(4)

	r1 := p.Acquire(Subheap)
	p.Release(r1)
	r2 := p.Acquire(Wrapped)
	if r2 != r1 {
		t.Error("pool did not recycle the idle runtime")
	}
	if r2.Mode() != Wrapped {
		t.Errorf("recycled runtime mode = %v, want wrapped", r2.Mode())
	}
	p.Release(r2)
	ps := p.Stats()
	if ps.Misses != 1 || ps.Hits != 1 || ps.Releases != 2 || ps.Idle != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 2 releases, 1 idle", ps)
	}

	if n := p.Drain(); n != 1 {
		t.Errorf("Drain dropped %d, want 1", n)
	}

	SetReuseSystems(false)
	r3 := p.Acquire(Subheap)
	p.Release(r3)
	if r4 := p.Acquire(Subheap); r4 == r3 {
		t.Error("escape hatch still recycled a runtime")
	}
	if ps := p.Stats(); ps.Idle != 0 {
		t.Errorf("idle = %d with reuse disabled, want 0", ps.Idle)
	}

	p.Release(nil) // must not panic
}

// TestPoolCapsIdleRuntimes: releases beyond maxIdle are discarded.
func TestPoolCapsIdleRuntimes(t *testing.T) {
	defer SetReuseSystems(true)
	SetReuseSystems(true)
	p := NewPool(2)
	for i := 0; i < 5; i++ {
		p.Release(New(Subheap))
	}
	ps := p.Stats()
	if ps.Idle != 2 || ps.Discards != 3 || ps.Releases != 5 {
		t.Errorf("stats = %+v, want idle 2, discards 3, releases 5", ps)
	}
}

// TestPoolConcurrentDeterminism: many goroutines hammering one pool must
// each observe runs identical to a fresh serial run — run under -race in
// CI, this is the reset-state-leak detector.
func TestPoolConcurrentDeterminism(t *testing.T) {
	defer SetReuseSystems(true)
	SetReuseSystems(true)
	want := exerciseRuntime(t, New(Subheap))

	p := NewPool(8)
	const goroutines, iters = 8, 6
	errs := make(chan string, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := p.Acquire(Subheap)
				if got := exerciseRuntime(t, r); got != want {
					errs <- fmt.Sprintf("pooled run diverged:\nfresh:  %s\npooled: %s", want, got)
				}
				p.Release(r)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

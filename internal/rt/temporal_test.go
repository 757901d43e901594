package rt

import (
	"testing"

	"infat/internal/machine"
	"infat/internal/tag"
)

// The generation store is keyed by chunk base, so every interaction with
// the arenas and allocators must keep it coherent: a rejected free must
// not bump, a double free must trap (typed, never a panic), and Reset —
// which rewinds all arenas — must also rewind the store so a pooled
// runtime cannot leak stale generations into its next tenant.

func TestTemporalDoubleFreeTrapsTyped(t *testing.T) {
	r := New(IFPTemporal)
	o, err := r.MallocBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	bumps := r.Gens().Bumps()
	err = r.Free(o)
	if !machine.IsTrap(err, machine.TrapTemporal) {
		t.Fatalf("double free = %v, want TrapTemporal", err)
	}
	// The rejected free must not bump again: a second bump would advance
	// the store past outstanding duplicates of the same stale pointer and
	// (after enough retries) wrap the tag field back into validity.
	if r.Gens().Bumps() != bumps {
		t.Errorf("rejected double free bumped the store: %d -> %d", bumps, r.Gens().Bumps())
	}
}

func TestTemporalFreeBumpsOnlyOnSuccess(t *testing.T) {
	r := New(IFPTemporal)
	o, err := r.MallocBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	// A wild free carries generation 0 for an untracked base: the
	// generation check passes (nothing was ever freed there), the
	// allocator rejects it, and the store must stay untouched — bumping a
	// base the allocator never released would poison a future allocation
	// at that address.
	wildBase := o.Base() + 0x10_0000
	wild := Obj{P: tag.WithGen(tag.MakeLocal(wildBase, 0, 0), 0), Size: 64}
	if err := r.Free(wild); err == nil {
		t.Fatal("wild free accepted")
	} else if machine.IsTrap(err, machine.TrapTemporal) {
		t.Fatalf("wild free misclassified as temporal: %v", err)
	}
	if got := r.Gens().Gen(wildBase); got != 0 {
		t.Errorf("rejected free bumped untracked base to gen %d", got)
	}
	// The original object is still live and freeable exactly once.
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	if got := r.Gens().Gen(o.Base()); got != 1 {
		t.Errorf("gen after first free = %d, want 1", got)
	}
}

func TestResetRewindsGenerationsWithArenas(t *testing.T) {
	r := New(IFPTemporal)
	o, err := r.MallocBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	base := o.Base()
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	if r.Gens().Gen(base) == 0 {
		t.Fatal("free did not bump the generation")
	}

	// Reset rewinds the heap arenas, so the next run's first allocation
	// reuses the same base; the generation store must rewind with them or
	// that fresh allocation would be stamped against a stale generation.
	r.Reset(IFPTemporal)
	if r.Gens().Len() != 0 || r.Gens().Bumps() != 0 {
		t.Fatalf("Reset left %d generations, %d bumps", r.Gens().Len(), r.Gens().Bumps())
	}
	o2, err := r.MallocBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Base() != base {
		t.Fatalf("post-reset allocation at %#x, want rewound base %#x", o2.Base(), base)
	}
	if g, ok := tag.Gen(o2.P); !ok || g != 0 {
		t.Errorf("post-reset pointer stamped gen %d (has field: %v), want 0", g, ok)
	}
	if err := r.Free(o2); err != nil {
		t.Fatalf("free of post-reset allocation: %v", err)
	}

	// Reset into a spatial mode drops temporal checking entirely: the
	// same alloc/free/free sequence reports a plain allocator error, not
	// a temporal trap.
	r.Reset(Subheap)
	o3, err := r.MallocBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Free(o3); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(o3); err == nil {
		t.Error("spatial double free accepted")
	} else if machine.IsTrap(err, machine.TrapTemporal) {
		t.Errorf("spatial mode raised a temporal trap: %v", err)
	}
	if r.Gens().Bumps() != 0 {
		t.Errorf("spatial mode bumped the generation store %d times", r.Gens().Bumps())
	}
}

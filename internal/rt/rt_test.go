package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"infat/internal/heap"
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/tag"
)

var nodeT = layout.StructOf("node",
	layout.F("key", layout.Long),
	layout.F("left", layout.PointerTo(nil)),
	layout.F("right", layout.PointerTo(nil)))

func TestModes(t *testing.T) {
	for _, m := range []Mode{Baseline, Subheap, Wrapped, Hybrid, Mode(9)} {
		if m.String() == "" {
			t.Error("empty mode string")
		}
	}
	if New(Baseline).Instrumented() {
		t.Error("baseline instrumented")
	}
	if !New(Subheap).Instrumented() || !New(Wrapped).Instrumented() || !New(Hybrid).Instrumented() {
		t.Error("instrumented modes not instrumented")
	}
	if New(Wrapped).Mode() != Wrapped {
		t.Error("mode accessor")
	}
}

func TestHybridGraduation(t *testing.T) {
	r := New(Hybrid)
	var objs []Obj
	for i := 0; i < 12; i++ {
		o, err := r.Malloc(nodeT, 1)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	// The first hybridGraduation allocations take the wrapped path; the
	// signature then graduates to a subheap pool.
	if s := tag.SchemeOf(objs[0].P); s != tag.SchemeLocalOffset {
		t.Errorf("first alloc scheme = %v, want local-offset (wrapped)", s)
	}
	if s := tag.SchemeOf(objs[11].P); s != tag.SchemeSubheap {
		t.Errorf("12th alloc scheme = %v, want subheap", s)
	}
	if r.Stats.HeapPool == 0 || r.Stats.HeapPool == r.Stats.HeapObjects {
		t.Errorf("pool split = %d of %d, want a mix", r.Stats.HeapPool, r.Stats.HeapObjects)
	}
	// Every object promotes to its own bounds and frees cleanly despite
	// the mixed schemes (tag-dispatched free).
	for i, o := range objs {
		_, b := r.M.Promote(o.P)
		if !b.Valid || b.B.Lower != o.Base() {
			t.Errorf("obj %d promote = %+v", i, b)
		}
		if err := r.Free(o); err != nil {
			t.Errorf("obj %d free: %v", i, err)
		}
	}
	// Oversized allocations fall back to the global table.
	big, err := r.MallocBytes(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if s := tag.SchemeOf(big.P); s != tag.SchemeGlobalTable {
		t.Errorf("big alloc scheme = %v", s)
	}
}

func TestLayoutInterning(t *testing.T) {
	r := New(Wrapped)
	a1, tb1, err := r.LayoutOf(nodeT)
	if err != nil || a1 == 0 || tb1 == nil {
		t.Fatalf("layout = %#x (err %v)", a1, err)
	}
	a2, tb2, _ := r.LayoutOf(nodeT)
	if a1 != a2 || tb1 != tb2 {
		t.Error("layout table not shared between objects of the same type")
	}
	// Encoded table readable from guest memory.
	w0, err := r.M.Mem.Load64(a1)
	if err != nil {
		t.Fatal(err)
	}
	if e := layout.DecodeEntry(w0, 0); e.Bound != nodeT.Size() {
		t.Errorf("root entry bound = %d", e.Bound)
	}
	if idx, err := r.SubobjIndexOf(nodeT, "left"); err != nil || idx != 2 {
		t.Errorf("SubobjIndexOf(left) = (%d, %v)", idx, err)
	}
	if _, err := r.SubobjIndexOf(nodeT, "ghost"); err == nil {
		t.Error("ghost path resolved")
	}
}

func TestAllocLocalInstrumented(t *testing.T) {
	r := New(Subheap)
	o, err := r.AllocLocal(nodeT)
	if err != nil {
		t.Fatal(err)
	}
	if tag.SchemeOf(o.P) != tag.SchemeLocalOffset {
		t.Fatalf("scheme = %v", tag.SchemeOf(o.P))
	}
	if !o.B.Valid || o.B.B.Span() != nodeT.Size() {
		t.Errorf("bounds = %+v", o.B)
	}
	// Promote finds the metadata and the layout table.
	p := r.SetSub(o.P, 1) // key
	_, b := r.M.Promote(p)
	if !b.Valid || b.B.Span() != 8 {
		t.Errorf("narrowed bounds = %+v", b)
	}
	if r.Stats.LocalObjects != 1 || r.Stats.LocalWithLT != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
	// Deregistration invalidates later promotes (temporal safety within
	// the metadata's power, §3: errors that invalidate object metadata).
	if err := r.DeallocLocal(o); err != nil {
		t.Fatal(err)
	}
	q, b := r.M.Promote(o.P)
	if b.Valid || tag.PoisonOf(q) != tag.Invalid {
		t.Error("promote after deregistration succeeded")
	}
}

func TestAllocLocalUntyped(t *testing.T) {
	r := New(Wrapped)
	o, err := r.AllocLocalBytes(64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.LocalObjects != 1 || r.Stats.LocalWithLT != 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
	_ = o
}

func TestAllocLocalBigFallsBackToGlobalTable(t *testing.T) {
	r := New(Subheap)
	big := layout.ArrayOf(layout.Long, 4096) // 32 KiB > 1008
	o, err := r.AllocLocal(big)
	if err != nil {
		t.Fatal(err)
	}
	if tag.SchemeOf(o.P) != tag.SchemeGlobalTable {
		t.Fatalf("scheme = %v", tag.SchemeOf(o.P))
	}
	_, b := r.M.Promote(o.P)
	if !b.Valid || b.B.Span() != big.Size() {
		t.Errorf("bounds = %+v", b)
	}
	if err := r.DeallocLocal(o); err != nil {
		t.Fatal(err)
	}
	if _, b := r.M.Promote(o.P); b.Valid {
		t.Error("promote after row release succeeded")
	}
}

func TestStackMarkRelease(t *testing.T) {
	r := New(Baseline)
	m0 := r.StackMark()
	o, _ := r.AllocLocalBytes(128)
	if r.StackMark() == m0 {
		t.Error("stack did not grow")
	}
	if err := r.StackRelease(m0); err != nil {
		t.Fatal(err)
	}
	o2, _ := r.AllocLocalBytes(128)
	if o2.Base() != o.Base() {
		t.Error("stack frame not reused after release")
	}
}

func TestStackReleaseBadMark(t *testing.T) {
	// A corrupted or stale mark is rejected with a typed allocator trap
	// (never a panic) and the stack is left untouched.
	r := New(Subheap)
	if _, err := r.AllocLocalBytes(64); err != nil {
		t.Fatal(err)
	}
	live := r.StackMark()
	for _, bad := range []uint64{0, live + 4096, ^uint64(0)} {
		err := r.StackRelease(bad)
		if !machine.IsTrap(err, machine.TrapAlloc) {
			t.Errorf("StackRelease(%#x) = %v, want TrapAlloc", bad, err)
		}
		if !errors.Is(err, heap.ErrBadRelease) {
			t.Errorf("StackRelease(%#x) cause = %v, want ErrBadRelease", bad, err)
		}
		if r.StackMark() != live {
			t.Fatalf("failed release moved the stack break")
		}
	}
}

func TestInjectAllocFault(t *testing.T) {
	for _, mode := range []Mode{Wrapped, Subheap, Hybrid, Baseline} {
		r := New(mode)
		r.InjectAllocFault(3)
		var objs []Obj
		for i := 0; i < 5; i++ {
			o, err := r.MallocBytes(64)
			if i == 2 {
				// The armed ordinal fails with a typed allocator trap
				// carrying the injected-fault sentinel.
				if !machine.IsTrap(err, machine.TrapAlloc) || !errors.Is(err, ErrInjectedAllocFault) {
					t.Fatalf("%v: alloc %d err = %v, want injected TrapAlloc", mode, i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: alloc %d unexpectedly failed: %v", mode, i, err)
			}
			objs = append(objs, o)
		}
		// The runtime stays fully usable: earlier objects remain live and
		// freeable after the injected failure.
		for _, o := range objs {
			if err := r.Free(o); err != nil {
				t.Fatalf("%v: free after injected fault: %v", mode, err)
			}
		}
		// Disarming works.
		r.InjectAllocFault(1)
		r.InjectAllocFault(0)
		if _, err := r.MallocBytes(64); err != nil {
			t.Fatalf("%v: disarmed fault still fired: %v", mode, err)
		}
	}
}

func TestAllocExhaustionIsTypedTrap(t *testing.T) {
	// Driving any allocator to exhaustion yields a typed TrapAlloc, never
	// a panic or an untyped error: stack arena, free list, and the global
	// metadata table.
	r := New(Subheap)
	var stackErr error
	for i := 0; i < 10_000; i++ {
		if _, stackErr = r.StackRaw(1 << 20); stackErr != nil {
			break
		}
	}
	if !machine.IsTrap(stackErr, machine.TrapAlloc) || !errors.Is(stackErr, heap.ErrOutOfMemory) {
		t.Errorf("stack exhaustion = %v, want TrapAlloc wrapping ErrOutOfMemory", stackErr)
	}

	r2 := New(Wrapped)
	var flErr error
	for i := 0; i < 10_000; i++ {
		if _, flErr = r2.MallocBytes(16 << 20); flErr != nil {
			break
		}
	}
	if !machine.IsTrap(flErr, machine.TrapAlloc) || !errors.Is(flErr, heap.ErrOutOfMemory) {
		t.Errorf("free-list exhaustion = %v, want TrapAlloc wrapping ErrOutOfMemory", flErr)
	}

	r3 := New(Wrapped)
	r3.ForceGlobalTable = true
	var rowErr error
	for i := 0; i < 10_000; i++ {
		if _, rowErr = r3.MallocBytes(16); rowErr != nil {
			break
		}
	}
	if !machine.IsTrap(rowErr, machine.TrapAlloc) || !errors.Is(rowErr, ErrTableFull) {
		t.Errorf("table exhaustion = %v, want TrapAlloc wrapping ErrTableFull", rowErr)
	}
}

// TestFailedRegistrationReleasesReservation: an allocation whose
// registration fails (here: the global table is full) gives back the
// memory it reserved — the free-list chunk, or the stack arena's bytes —
// so a guest that retries a failing allocation cannot drain the heap.
func TestFailedRegistrationReleasesReservation(t *testing.T) {
	r := New(Wrapped)
	for {
		_, err := r.MallocBytes(4096)
		if errors.Is(err, ErrTableFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	live, stack := r.fl.LiveBytes(), r.StackMark()
	for i := 0; i < 10; i++ {
		if _, err := r.MallocBytes(4096); !errors.Is(err, ErrTableFull) {
			t.Fatalf("malloc on a full table = %v, want ErrTableFull", err)
		}
		if _, err := r.AllocLocalBytes(4096); !errors.Is(err, ErrTableFull) {
			t.Fatalf("stack local on a full table = %v, want ErrTableFull", err)
		}
	}
	if got := r.fl.LiveBytes(); got != live {
		t.Errorf("failed mallocs left %d live bytes behind", got-live)
	}
	if got := r.StackMark(); got != stack {
		t.Errorf("failed stack locals moved the stack break by %d bytes", got-stack)
	}
}

func TestRegisterGlobal(t *testing.T) {
	r := New(Wrapped)
	small, err := r.RegisterGlobal(nodeT)
	if err != nil {
		t.Fatal(err)
	}
	if s := tag.SchemeOf(small.P); s != tag.SchemeLocalOffset {
		t.Errorf("small global scheme = %v", s)
	}
	big, err := r.RegisterGlobalBytes(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if s := tag.SchemeOf(big.P); s != tag.SchemeGlobalTable {
		t.Errorf("big global scheme = %v", s)
	}
	if r.Stats.GlobalObjects != 2 || r.Stats.GlobalWithLT != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
	_, b := r.M.Promote(big.P)
	if !b.Valid || b.B.Span() != 1<<20 {
		t.Errorf("big global bounds = %+v", b)
	}
}

func TestMallocWrappedSmall(t *testing.T) {
	r := New(Wrapped)
	o, err := r.Malloc(nodeT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tag.SchemeOf(o.P) != tag.SchemeLocalOffset {
		t.Fatalf("scheme = %v", tag.SchemeOf(o.P))
	}
	_, b := r.M.Promote(o.P)
	if !b.Valid || b.B.Span() != nodeT.Size() {
		t.Errorf("bounds = %+v", b)
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	// Metadata cleared: stale pointers poison on promote.
	if q, b := r.M.Promote(o.P); b.Valid || tag.PoisonOf(q) != tag.Invalid {
		t.Error("stale promote succeeded after free")
	}
	if r.Stats.HeapObjects != 1 || r.Stats.HeapWithLT != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestMallocWrappedLarge(t *testing.T) {
	r := New(Wrapped)
	o, err := r.Malloc(layout.Long, 1024) // 8 KiB > 1008
	if err != nil {
		t.Fatal(err)
	}
	if tag.SchemeOf(o.P) != tag.SchemeGlobalTable {
		t.Fatalf("scheme = %v", tag.SchemeOf(o.P))
	}
	_, b := r.M.Promote(o.P)
	if !b.Valid || b.B.Span() != 8192 {
		t.Errorf("bounds = %+v", b)
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	if _, b := r.M.Promote(o.P); b.Valid {
		t.Error("stale promote succeeded")
	}
}

func TestMallocSubheapPacksAndShares(t *testing.T) {
	r := New(Subheap)
	var objs []Obj
	for i := 0; i < 10; i++ {
		o, err := r.Malloc(nodeT, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tag.SchemeOf(o.P) != tag.SchemeSubheap {
			t.Fatalf("scheme = %v", tag.SchemeOf(o.P))
		}
		objs = append(objs, o)
	}
	// Same-type objects share one block: consecutive slot addresses.
	stride := objs[1].Base() - objs[0].Base()
	if stride != 32 { // node is 24 bytes -> 32-byte slots
		t.Errorf("slot stride = %d, want 32", stride)
	}
	// Every pointer promotes to its own slot's bounds.
	for i, o := range objs {
		q, b := r.M.Promote(o.P)
		if !b.Valid || b.B.Lower != o.Base() || b.B.Span() != nodeT.Size() {
			t.Errorf("obj %d bounds = %+v", i, b)
		}
		if tag.PoisonOf(q) != tag.Valid {
			t.Errorf("obj %d poison = %v", i, tag.PoisonOf(q))
		}
	}
	// Interior pointers resolve to the right slot.
	mid := r.GEP(objs[3].P, 16, objs[3].B)
	_, b := r.M.Promote(mid)
	if !b.Valid || b.B.Lower != objs[3].Base() {
		t.Errorf("interior promote = %+v", b)
	}
	// Free everything; the block returns to the buddy and stale promotes
	// fail (metadata zeroed).
	for _, o := range objs {
		if err := r.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if q, b := r.M.Promote(objs[0].P); b.Valid || tag.PoisonOf(q) != tag.Invalid {
		t.Error("stale subheap promote succeeded")
	}
}

func TestMallocSubheapSeparatesTypes(t *testing.T) {
	r := New(Subheap)
	other := layout.StructOf("other",
		layout.F("a", layout.Long), layout.F("b", layout.Long), layout.F("c", layout.Long))
	o1, err := r.Malloc(nodeT, 1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := r.Malloc(other, 1) // same 24-byte size, different type
	if err != nil {
		t.Fatal(err)
	}
	// §3.3.2: only identical-metadata objects share a block.
	blockOf := func(p Ptr) uint64 { return tag.Addr(p) &^ (uint64(1)<<12 - 1) }
	if blockOf(o1.P) == blockOf(o2.P) {
		t.Error("different types share a subheap block")
	}
}

func TestMallocSubheapArrayNarrowing(t *testing.T) {
	// malloc(num*sizeof(T)) under the subheap allocator: a pointer into
	// element 2's subobject narrows correctly via the shared element
	// table.
	r := New(Subheap)
	o, err := r.Malloc(nodeT, 4)
	if err != nil {
		t.Fatal(err)
	}
	li, err := r.SubobjIndexOf(nodeT, "left")
	if err != nil {
		t.Fatal(err)
	}
	p := r.GEP(o.P, int64(2*nodeT.Size()+8), o.B)
	p = r.SetSub(p, li)
	_, b := r.M.Promote(p)
	if !b.Valid {
		t.Fatal("no bounds")
	}
	wantLo := o.Base() + 2*nodeT.Size() + 8
	if b.B.Lower != wantLo || b.B.Span() != 8 {
		t.Errorf("bounds = %v, want [%#x,+8)", b.B, wantLo)
	}
}

func TestMallocSubheapOversizedFallsBack(t *testing.T) {
	r := New(Subheap)
	o, err := r.MallocBytes(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if s := tag.SchemeOf(o.P); s != tag.SchemeGlobalTable {
		t.Errorf("scheme = %v, want global fallback", s)
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
}

func TestMallocBaseline(t *testing.T) {
	r := New(Baseline)
	o, err := r.Malloc(nodeT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tag.IsLegacy(o.P) {
		t.Errorf("baseline alloc = %+v", o)
	}
	if r.M.C.IfpTotal() != 0 {
		t.Error("baseline emitted IFP instructions")
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
	if r.Stats.HeapObjects != 0 {
		t.Error("baseline counted instrumented objects")
	}
}

func TestMallocLegacyInInstrumentedMode(t *testing.T) {
	r := New(Subheap)
	o, err := r.MallocLegacy(100)
	if err != nil {
		t.Fatal(err)
	}
	if !tag.IsLegacy(o.P) {
		t.Error("legacy alloc tagged")
	}
	// Promoting it bypasses lookup (the Table-4 legacy-promote path).
	_, b := r.M.Promote(o.P)
	if b.Valid {
		t.Error("legacy promote retrieved bounds")
	}
	if r.M.C.PromoteLegacy != 1 {
		t.Errorf("PromoteLegacy = %d", r.M.C.PromoteLegacy)
	}
	if err := r.Free(o); err != nil {
		t.Fatal(err)
	}
}

func TestFreeErrors(t *testing.T) {
	r := New(Subheap)
	local, err := r.AllocLocalBytes(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Free(local); err == nil {
		t.Error("Free of local accepted")
	}
	// The rejected free wrote nothing: the local's record is intact.
	if _, b := r.M.Promote(local.P); !b.Valid || b.B.Lower != local.Base() {
		t.Errorf("local promote after rejected free = %+v", b)
	}
	if err := r.Free(Obj{P: tag.MakeLocal(0x123450, 2, 0), Size: 8}); err == nil {
		t.Error("wild wrapped free accepted")
	}
	if err := r.Free(Obj{P: tag.MakeSubheap(0x5000, 9, 0)}); err == nil {
		t.Error("subheap free with dead CR accepted")
	}
}

// TestLegacyFreeOfWrappedChunkRejected: a tag-stripped handle to a live
// wrapped chunk cannot free it. The legacy free used to release the
// chunk and leave its metadata record behind, so 4,096 such frees of
// 4 KiB chunks leaked every global-table row and the next allocation
// trapped on a full table. The free must fail untouched: the record stays
// live, the chunk still promotes to its bounds, and the tagged free then
// succeeds.
func TestLegacyFreeOfWrappedChunkRejected(t *testing.T) {
	for _, size := range []uint64{64, 4096} { // local-offset record, global-table row
		r := New(Wrapped)
		o, err := r.MallocBytes(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Free(Obj{P: tag.Addr(o.P), Size: o.Size}); err == nil {
			t.Errorf("%d B: legacy free of a live wrapped chunk accepted", size)
		}
		if tag.SchemeOf(o.P) == tag.SchemeGlobalTable {
			if row := tag.GlobalIndex(o.P); r.liveRows[row/64]&(1<<(row%64)) == 0 {
				t.Errorf("%d B: global-table row %d released by the rejected free", size, row)
			}
		}
		if _, b := r.M.Promote(o.P); b != o.B {
			t.Errorf("%d B: chunk promotes to %+v after the rejected free, want %+v", size, b, o.B)
		}
		if err := r.Free(o); err != nil {
			t.Errorf("%d B: tagged free after the rejected one: %v", size, err)
		}
	}
}

// TestSubheapDoubleFreeRejected: a second free of a subheap slot is an
// error that leaves its block untouched. Without per-slot liveness the
// slot went onto the block's free list twice and the live count hit
// zero under a live neighbour: the block's shared record was cleared, so
// the neighbour promoted invalid, and the next two allocations returned
// the freed slot and then the neighbour's own address.
func TestSubheapDoubleFreeRejected(t *testing.T) {
	r := New(Subheap)
	a, err := r.MallocBytes(24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MallocBytes(24)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(a); err == nil {
		t.Error("second free of a subheap slot accepted")
	}
	if _, bb := r.M.Promote(b.P); bb != b.B {
		t.Errorf("live neighbour promotes to %+v after the rejected free, want %+v", bb, b.B)
	}
	for i := 0; i < 4; i++ {
		o, err := r.MallocBytes(24)
		if err != nil {
			t.Fatal(err)
		}
		if o.Base() == b.Base() {
			t.Fatalf("allocation %d returned the live neighbour's address %#x", i, o.Base())
		}
	}
}

// TestGlobalRowDoubleReleaseRejected: a global-table row is released at
// most once. Without row liveness, DeallocLocal of a wrapped heap chunk
// followed by its Free, or a second DeallocLocal of an oversized local,
// queued the row twice, so the next two oversized objects shared it and
// the first promoted to the second's bounds. Both sequences must now
// fail, and the next two objects must get distinct rows that each
// promote to their own bounds.
func TestGlobalRowDoubleReleaseRejected(t *testing.T) {
	ownRows := func(t *testing.T, r *Runtime, x, y Obj) {
		t.Helper()
		if tag.SchemeOf(x.P) != tag.SchemeGlobalTable || tag.SchemeOf(y.P) != tag.SchemeGlobalTable {
			t.Fatalf("schemes = %v, %v, want the global table", tag.SchemeOf(x.P), tag.SchemeOf(y.P))
		}
		if tag.GlobalIndex(x.P) == tag.GlobalIndex(y.P) {
			t.Errorf("two live objects share global-table row %d", tag.GlobalIndex(x.P))
		}
		for _, o := range []Obj{x, y} {
			if _, b := r.M.Promote(o.P); b != o.B {
				t.Errorf("object at %#x promotes to %+v, want %+v", o.Base(), b, o.B)
			}
		}
	}
	t.Run("heap chunk", func(t *testing.T) {
		r := New(Wrapped)
		h, err := r.MallocBytes(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DeallocLocal(h); err == nil {
			t.Error("DeallocLocal of a heap chunk accepted")
		}
		if err := r.Free(h); err != nil {
			t.Fatal(err)
		}
		x, err := r.MallocBytes(4096)
		if err != nil {
			t.Fatal(err)
		}
		y, err := r.MallocBytes(8192)
		if err != nil {
			t.Fatal(err)
		}
		ownRows(t, r, x, y)
	})
	t.Run("oversized local", func(t *testing.T) {
		r := New(Wrapped)
		l, err := r.AllocLocalBytes(2000)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.DeallocLocal(l); err != nil {
			t.Fatal(err)
		}
		if err := r.DeallocLocal(l); err == nil {
			t.Error("second DeallocLocal of an oversized local accepted")
		}
		x, err := r.AllocLocalBytes(2000)
		if err != nil {
			t.Fatal(err)
		}
		y, err := r.AllocLocalBytes(4000)
		if err != nil {
			t.Fatal(err)
		}
		ownRows(t, r, x, y)
	})
}

func TestOverflowDetectionEndToEnd(t *testing.T) {
	// The headline property: a heap overflow past the object is caught in
	// both instrumented modes, and intra-object overflow is caught when
	// the layout table is present.
	outer := layout.StructOf("S",
		layout.F("vulnerable", layout.ArrayOf(layout.Char, 12)),
		layout.F("sensitive", layout.ArrayOf(layout.Char, 12)))
	for _, mode := range []Mode{Subheap, Wrapped} {
		r := New(mode)
		o, err := r.Malloc(outer, 1)
		if err != nil {
			t.Fatal(err)
		}
		vi, err := r.SubobjIndexOf(outer, "vulnerable")
		if err != nil {
			t.Fatal(err)
		}
		// Simulate: char *v = s->vulnerable; (tag update + promote as if
		// reloaded from memory).
		v := r.SetSub(o.P, vi)
		v, vb := r.M.Promote(v)
		if !vb.Valid || vb.B.Span() != 12 {
			t.Fatalf("%v: vulnerable bounds = %+v", mode, vb)
		}
		// In-bounds writes succeed.
		for i := int64(0); i < 12; i++ {
			if err := r.Store(r.GEP(v, i, vb), 0x41, 1, vb); err != nil {
				t.Fatalf("%v: in-bounds write %d: %v", mode, i, err)
			}
		}
		// The 13th write (into `sensitive`) traps.
		err = r.Store(r.GEP(v, 12, vb), 0x41, 1, vb)
		if !machine.IsTrap(err, machine.TrapPoison) && !machine.IsTrap(err, machine.TrapBounds) {
			t.Errorf("%v: intra-object overflow err = %v", mode, err)
		}
	}
}

func TestBaselineMissesOverflow(t *testing.T) {
	// Sanity of the methodology: the baseline mode detects nothing.
	r := New(Baseline)
	o, _ := r.MallocBytes(12)
	v := o.P
	if err := r.Store(r.GEP(v, 12, o.B), 0x41, 1, o.B); err != nil {
		t.Errorf("baseline detected the overflow: %v", err)
	}
}

func TestMemsetMemcpy(t *testing.T) {
	r := New(Subheap)
	a, _ := r.MallocBytes(64)
	bObj, _ := r.MallocBytes(64)
	if err := r.Memset(a.P, 0x5a, 64, a.B); err != nil {
		t.Fatal(err)
	}
	if err := r.Memcpy(bObj.P, bObj.B, a.P, a.B, 61); err != nil {
		t.Fatal(err)
	}
	v, _ := r.Load(r.GEP(bObj.P, 56, bObj.B), 4, bObj.B)
	if v != 0x5a5a5a5a {
		t.Errorf("copied tail = %#x", v)
	}
	// Overflowing memset traps.
	if err := r.Memset(a.P, 1, 65, a.B); err == nil {
		t.Error("overflowing memset passed")
	}
}

func TestPointerRoundTripThroughMemory(t *testing.T) {
	// Store a tagged pointer to the heap, load it back, promote: the tag
	// survives memory and the bounds come back. Listing 2's gv_ptr flow.
	r := New(Wrapped)
	node, _ := r.Malloc(nodeT, 1)
	cell, _ := r.MallocBytes(8)
	if err := r.StorePtr(cell.P, cell.B, node.P, node.B); err != nil {
		t.Fatal(err)
	}
	q, qb, err := r.LoadPtr(cell.P, cell.B)
	if err != nil {
		t.Fatal(err)
	}
	if !qb.Valid || qb.B.Lower != node.Base() || qb.B.Span() != nodeT.Size() {
		t.Errorf("reloaded bounds = %+v", qb)
	}
	if tag.Addr(q) != node.Base() {
		t.Errorf("reloaded ptr = %#x", tag.Addr(q))
	}
}

func TestSpillReloadBounds(t *testing.T) {
	r := New(Subheap)
	o, _ := r.Malloc(nodeT, 1)
	slot, _ := r.AllocLocalBytes(16)
	if err := r.SpillBounds(slot.Base(), o.B); err != nil {
		t.Fatal(err)
	}
	b, err := r.ReloadBounds(slot.Base())
	if err != nil || b != o.B {
		t.Errorf("reloaded = %+v (err %v)", b, err)
	}
	// Baseline: no-ops.
	rb := New(Baseline)
	if err := rb.SpillBounds(0x100, machine.Cleared); err != nil {
		t.Fatal(err)
	}
	if b, _ := rb.ReloadBounds(0x100); b.Valid {
		t.Error("baseline reload produced bounds")
	}
}

func TestGlobalRowRecycling(t *testing.T) {
	r := New(Wrapped)
	o1, err := r.Malloc(layout.Long, 1024)
	if err != nil {
		t.Fatal(err)
	}
	row1 := tag.GlobalIndex(o1.P)
	if err := r.Free(o1); err != nil {
		t.Fatal(err)
	}
	o2, err := r.Malloc(layout.Long, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if row2 := tag.GlobalIndex(o2.P); row2 != row1 {
		t.Errorf("row not recycled: %d vs %d", row2, row1)
	}
}

func TestFootprintGrowsWithAllocations(t *testing.T) {
	r := New(Subheap)
	f0 := r.Footprint()
	o, _ := r.MallocBytes(1 << 16)
	if err := r.Memset(o.P, 1, 1<<16, o.B); err != nil {
		t.Fatal(err)
	}
	if r.Footprint() <= f0 {
		t.Error("footprint did not grow")
	}
}

func TestSubheapMetadataFootprintSharing(t *testing.T) {
	// The §5.2.3 mechanism: N same-type objects under the subheap
	// allocator share per-block metadata, while the wrapped allocator
	// pays per-object metadata. Footprint must reflect that.
	alloc := func(mode Mode, n int) uint64 {
		r := New(mode)
		for i := 0; i < n; i++ {
			o, err := r.Malloc(nodeT, 1)
			if err != nil {
				panic(err)
			}
			if err := r.Memset(o.P, 1, nodeT.Size(), o.B); err != nil {
				panic(err)
			}
		}
		return r.Footprint()
	}
	n := 4000
	sub := alloc(Subheap, n)
	wrap := alloc(Wrapped, n)
	if sub >= wrap {
		t.Errorf("subheap footprint %d >= wrapped %d", sub, wrap)
	}
}

// TestReleaseFollowsTheTag pins that releasing an object touches its own
// registration and nothing else, whichever path placed it and whichever
// scheme its tag names. Every allocation path, in every mode and with the
// ForceGlobalTable ablation on and off, places objects on both sides of
// the local-offset and subheap size caps; they are then released in a
// seeded shuffled order. After each release every live instrumented
// object must still promote to exactly its allocation bounds, and a
// released local-offset or global-table object must no longer promote
// valid. (A released subheap slot may: its block's shared record lives
// on while the block holds other slots.)
func TestReleaseFollowsTheTag(t *testing.T) {
	sizes := []uint64{1, 16, 24, tag.MaxLocalObjectSize, tag.MaxLocalObjectSize + 1, 4096, maxSubheapObject + 1}
	type placed struct {
		o    Obj
		path string
		heap bool
	}
	var seed int64
	for _, mode := range Modes {
		for _, force := range []bool{false, true} {
			seed++
			r := New(mode)
			r.ForceGlobalTable = force
			var objs []placed
			add := func(path string, heap bool, o Obj, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%v force=%v: %s: %v", mode, force, path, err)
				}
				objs = append(objs, placed{o, path, heap})
			}
			for _, size := range sizes {
				typ := layout.ArrayOf(layout.Char, size)
				o, err := r.AllocLocal(typ)
				add(fmt.Sprintf("AllocLocal(%d)", size), false, o, err)
				o, err = r.AllocLocalBytes(size)
				add(fmt.Sprintf("AllocLocalBytes(%d)", size), false, o, err)
				o, err = r.RegisterGlobal(typ)
				add(fmt.Sprintf("RegisterGlobal(%d)", size), false, o, err)
				o, err = r.RegisterGlobalBytes(size)
				add(fmt.Sprintf("RegisterGlobalBytes(%d)", size), false, o, err)
				// Enough repeats of one heap signature for Hybrid to
				// graduate it to a subheap pool and for pools to share a
				// block between live and released slots.
				for i := 0; i <= hybridGraduation+1; i++ {
					o, err = r.Malloc(typ, 1)
					add(fmt.Sprintf("Malloc(%d)#%d", size, i), true, o, err)
					o, err = r.MallocBytes(size)
					add(fmt.Sprintf("MallocBytes(%d)#%d", size, i), true, o, err)
					o, err = r.MallocLegacy(size)
					add(fmt.Sprintf("MallocLegacy(%d)#%d", size, i), true, o, err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
			for i, x := range objs {
				var err error
				if x.heap {
					err = r.Free(x.o)
				} else {
					err = r.DeallocLocal(x.o)
				}
				if err != nil {
					t.Fatalf("%v force=%v: release %s: %v", mode, force, x.path, err)
				}
				if s := tag.SchemeOf(x.o.P); s == tag.SchemeLocalOffset || s == tag.SchemeGlobalTable {
					if _, b := r.M.Promote(x.o.P); b.Valid {
						t.Errorf("%v force=%v: released %s (%v) still promotes to %v", mode, force, x.path, s, b.B)
					}
				}
				for _, y := range objs[i+1:] {
					if tag.IsLegacy(y.o.P) {
						continue
					}
					if _, b := r.M.Promote(y.o.P); b != y.o.B {
						t.Fatalf("%v force=%v: after releasing %s, live %s promotes to %+v, want %+v",
							mode, force, x.path, y.path, b, y.o.B)
					}
				}
			}
		}
	}
}

package heap

import (
	"errors"
	"testing"
	"testing/quick"

	"infat/internal/machine"
)

func TestArenaSbrk(t *testing.T) {
	a := NewArena(0x1000, 0x100)
	p1, err := a.Sbrk(10)
	if err != nil || p1 != 0x1000 {
		t.Fatalf("sbrk = %#x (err %v)", p1, err)
	}
	p2, err := a.Sbrk(16)
	if err != nil || p2 != 0x1010 { // previous request rounded to 16
		t.Fatalf("sbrk2 = %#x (err %v)", p2, err)
	}
	if _, err := a.Sbrk(0x1000); err == nil {
		t.Error("overcommit did not fail")
	}
	// The arena spans exactly [0x1000, 0x1100): the rest of it fits, one
	// more byte does not.
	if p, err := a.Sbrk(0x100 - 0x20); err != nil || p != 0x1020 {
		t.Fatalf("sbrk to limit = %#x (err %v)", p, err)
	}
	if _, err := a.Sbrk(1); err == nil {
		t.Error("sbrk past limit succeeded")
	}
}

// TestSizesNear2to64 pins every request within 16 bytes of 2^64. Rounding
// such a size up to 16 wrapped: Sbrk returned the break without moving
// it, so two objects shared an address, and Malloc carved a chunk whose
// payload was shorter than its own header (or empty). Both must now fail
// with ErrOutOfMemory and change nothing.
func TestSizesNear2to64(t *testing.T) {
	for n := uint64(1<<64 - 16); n != 0; n++ {
		a := NewArena(0x1000, 0x1000)
		if _, err := a.Sbrk(16); err != nil {
			t.Fatal(err)
		}
		if p, err := a.Sbrk(n); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("Sbrk(%#x) = %#x, %v; want ErrOutOfMemory", n, p, err)
		}
		if a.Mark() != 0x1010 {
			t.Errorf("Sbrk(%#x) moved the break to %#x", n, a.Mark())
		}

		_, f := newFL(t)
		first, err := f.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := f.Malloc(n); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("Malloc(%#x) = %#x, %v; want ErrOutOfMemory", n, p, err)
		}
		if f.LiveBytes() != 32 {
			t.Errorf("Malloc(%#x) left live = %d, want 32", n, f.LiveBytes())
		}
		if q, err := f.Malloc(16); err != nil || q != first+32 {
			t.Errorf("Malloc(16) after Malloc(%#x) = %#x (err %v), want %#x", n, q, err, first+32)
		}
	}
}

func newFL(t *testing.T) (*machine.Machine, *FreeList) {
	t.Helper()
	m := machine.New()
	return m, NewFreeList(m, NewArena(0x1000_0000, 64<<20))
}

func TestFreeListMallocAligned(t *testing.T) {
	_, f := newFL(t)
	for _, sz := range []uint64{1, 8, 16, 17, 100, 4096} {
		p, err := f.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		if p%16 != 0 {
			t.Errorf("size %d: unaligned payload %#x", sz, p)
		}
		if e := f.chunks.entry(p); e == nil || entryClass(*e) < sz {
			t.Errorf("size %d: chunk entry %v", sz, e)
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	_, f := newFL(t)
	p, _ := f.Malloc(64)
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	q, _ := f.Malloc(64)
	if q != p {
		t.Errorf("freed chunk not reused: %#x vs %#x", q, p)
	}
	// Large path too.
	pl, _ := f.Malloc(8192)
	if err := f.Free(pl); err != nil {
		t.Fatal(err)
	}
	ql, _ := f.Malloc(8192)
	if ql != pl {
		t.Errorf("large chunk not reused: %#x vs %#x", ql, pl)
	}
}

func TestFreeListHeaderInGuestMemory(t *testing.T) {
	m, f := newFL(t)
	p, _ := f.Malloc(48)
	hdr, err := m.Mem.Load64(p - HeaderBytes)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != 48|1 {
		t.Errorf("header = %#x, want size|in-use", hdr)
	}
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	hdr, _ = m.Mem.Load64(p - HeaderBytes)
	if hdr != 48 {
		t.Errorf("freed header = %#x", hdr)
	}
}

func TestFreeListDoubleFree(t *testing.T) {
	_, f := newFL(t)
	p, _ := f.Malloc(32)
	if err := f.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(p); err == nil {
		t.Error("double free undetected")
	}
	if err := f.Free(0xdead0); err == nil {
		t.Error("wild free undetected")
	}
}

func TestFreeListAccounting(t *testing.T) {
	_, f := newFL(t)
	p1, _ := f.Malloc(100) // class 112 + 16 header
	if f.LiveBytes() != 112+16 {
		t.Errorf("live = %d", f.LiveBytes())
	}
	p2, _ := f.Malloc(100)
	if f.LiveBytes() != 2*(112+16) {
		t.Errorf("live = %d", f.LiveBytes())
	}
	_ = f.Free(p1)
	_ = f.Free(p2)
	if f.LiveBytes() != 0 {
		t.Errorf("live after frees = %d", f.LiveBytes())
	}
	if f.a.Mark() == 0x1000_0000 {
		t.Error("no footprint recorded")
	}
}

func TestFreeListChargesInstructions(t *testing.T) {
	m, f := newFL(t)
	before := m.C.Instrs
	p, _ := f.Malloc(64)
	_ = f.Free(p)
	if m.C.Instrs == before {
		t.Error("allocator work cost no instructions")
	}
}

func TestFreeListExhaustion(t *testing.T) {
	m := machine.New()
	f := NewFreeList(m, NewArena(0x1000_0000, 4096))
	var last error
	for i := 0; i < 1000; i++ {
		if _, err := f.Malloc(64); err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Error("tiny arena never exhausted")
	}
}

func TestBuddySplitAndCoalesce(t *testing.T) {
	b := mustBuddy(t, 0x4000_0000, 20, 12) // 1 MiB region, 4 KiB min blocks
	p1, err := b.Alloc(12)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 0x4000_0000 {
		t.Errorf("first block = %#x", p1)
	}
	p2, _ := b.Alloc(12)
	if p2 != p1+4096 {
		t.Errorf("second block = %#x, want buddy of first", p2)
	}
	if b.Used() != 8192 {
		t.Errorf("used = %d", b.Used())
	}
	if err := b.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(p2); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Errorf("used = %d", b.Used())
	}
	// Full coalescing back to one region block: a region-order request
	// fits again, at the region base.
	if p, err := b.Alloc(20); err != nil || p != 0x4000_0000 {
		t.Errorf("region block after coalesce = %#x (err %v), want %#x", p, err, 0x4000_0000)
	}
}

func TestBuddyAlignment(t *testing.T) {
	b := mustBuddy(t, 0x4000_0000, 24, 12)
	for order := uint(12); order <= 16; order++ {
		p, err := b.Alloc(order)
		if err != nil {
			t.Fatal(err)
		}
		if p&(uint64(1)<<order-1) != 0 {
			t.Errorf("order %d block %#x not naturally aligned", order, p)
		}
	}
}

func TestBuddyErrors(t *testing.T) {
	b := mustBuddy(t, 0x4000_0000, 13, 12) // 8 KiB region
	if _, err := b.Alloc(14); err == nil {
		t.Error("oversized order succeeded")
	}
	p1, _ := b.Alloc(12)
	p2, _ := b.Alloc(12)
	if _, err := b.Alloc(12); err == nil {
		t.Error("exhausted buddy succeeded")
	}
	if err := b.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(p1); err == nil {
		t.Error("double free undetected")
	}
	_ = p2
}

// mustBuddy builds a buddy allocator from known-good geometry.
func mustBuddy(t testing.TB, base uint64, regionLog2, minLog2 uint) *Buddy {
	t.Helper()
	b, err := NewBuddy(base, regionLog2, minLog2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuddyBadConstruction(t *testing.T) {
	// Impossible geometry is a typed configuration error, not a panic:
	// construction parameters can be derived from inputs, and the chaos
	// fault model requires every reachable failure to be classifiable.
	cases := []struct {
		name                string
		base                uint64
		regionLog2, minLog2 uint
	}{
		{"min order exceeds region", 0x4000_0000, 10, 12},
		{"misaligned base", 0x4000_0800, 20, 12},
		{"region order exceeds address space", 0, 64, 12},
	}
	for _, tc := range cases {
		b, err := NewBuddy(tc.base, tc.regionLog2, tc.minLog2)
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
		if b != nil {
			t.Errorf("%s: got non-nil allocator alongside error", tc.name)
		}
	}
}

func TestArenaReleaseOutOfRange(t *testing.T) {
	a := NewArena(0x1000, 0x1000)
	p, err := a.Sbrk(256)
	if err != nil {
		t.Fatal(err)
	}
	mark := a.Mark()
	// Marks outside [base, brk] are corrupted or stale: typed rejection,
	// arena untouched.
	for _, bad := range []uint64{0xFFF, a.Mark() + 16, 0, ^uint64(0)} {
		if err := a.Release(bad); !errors.Is(err, ErrBadRelease) {
			t.Errorf("Release(%#x) = %v, want ErrBadRelease", bad, err)
		}
		if a.Mark() != mark {
			t.Fatalf("failed release moved the break to %#x", a.Mark())
		}
	}
	// A legitimate mark still releases.
	if err := a.Release(p); err != nil {
		t.Fatal(err)
	}
	if a.Mark() != p {
		t.Errorf("break after release = %#x, want %#x", a.Mark(), p)
	}
}

// Property: freelist malloc/free sequences never hand out overlapping live
// chunks.
func TestQuickFreeListNoOverlap(t *testing.T) {
	f := func(sizes []uint16, freeMask []bool) bool {
		m := machine.New()
		fl := NewFreeList(m, NewArena(0x1000_0000, 32<<20))
		type iv struct{ lo, hi uint64 }
		live := map[uint64]iv{}
		for i, s16 := range sizes {
			if len(live) > 0 && i < len(freeMask) && freeMask[i] {
				for a := range live {
					if err := fl.Free(a); err != nil {
						return false
					}
					delete(live, a)
					break
				}
				continue
			}
			size := uint64(s16%2048) + 1
			p, err := fl.Malloc(size)
			if err != nil {
				return false
			}
			n := iv{p, p + size}
			for _, o := range live {
				if n.lo < o.hi && o.lo < n.hi {
					return false // overlap
				}
			}
			live[p] = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: buddy blocks of the same order never overlap and stay aligned.
func TestQuickBuddySoundness(t *testing.T) {
	f := func(orders []uint8) bool {
		b := mustBuddy(t, 0x4000_0000, 22, 12)
		allocated := map[uint64]uint{}
		for _, o8 := range orders {
			order := 12 + uint(o8%6)
			p, err := b.Alloc(order)
			if err != nil {
				// Exhaustion is fine; free everything and continue.
				for a := range allocated {
					if b.Free(a) != nil {
						return false
					}
					delete(allocated, a)
				}
				continue
			}
			if p&(uint64(1)<<order-1) != 0 {
				return false
			}
			for a, ao := range allocated {
				alo, ahi := a, a+uint64(1)<<ao
				plo, phi := p, p+uint64(1)<<order
				if plo < ahi && alo < phi {
					return false
				}
			}
			allocated[p] = order
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFreeListMallocFree(b *testing.B) {
	m := machine.New()
	fl := NewFreeList(m, NewArena(0x1000_0000, 256<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := fl.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := fl.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd := mustBuddy(b, 0x4000_0000, 28, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := bd.Alloc(12)
		if err != nil {
			b.Fatal(err)
		}
		if err := bd.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

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
	if a.Used() != 0x20 {
		t.Errorf("used = %d", a.Used())
	}
	if _, err := a.Sbrk(0x1000); err == nil {
		t.Error("overcommit did not fail")
	}
	if a.Base() != 0x1000 || a.Limit() != 0x1100 {
		t.Error("base/limit")
	}
}

func TestArenaAlign(t *testing.T) {
	a := NewArena(0x1000, 0x10000)
	if _, err := a.Sbrk(24); err != nil {
		t.Fatal(err)
	}
	brk, err := a.AlignBrk(4096)
	if err != nil || brk != 0x2000 {
		t.Fatalf("aligned brk = %#x (err %v)", brk, err)
	}
	tiny := NewArena(0x1000, 0x100)
	if _, err := tiny.AlignBrk(1 << 20); err == nil {
		t.Error("align past limit succeeded")
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
		if got, ok := f.UsableSize(p); !ok || got < sz {
			t.Errorf("size %d: usable = %d", sz, got)
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
	hwm := f.HighWater()
	if hwm != 2*(112+16) {
		t.Errorf("hwm = %d", hwm)
	}
	_ = f.Free(p1)
	_ = f.Free(p2)
	if f.LiveBytes() != 0 {
		t.Errorf("live after frees = %d", f.LiveBytes())
	}
	if f.HighWater() != hwm {
		t.Error("hwm shrank")
	}
	if f.Footprint() == 0 {
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
	// Full coalescing back to one region block.
	if n := b.FreeBlocks(20); n != 1 {
		t.Errorf("region blocks after coalesce = %d, want 1", n)
	}
	if b.Used() != 0 {
		t.Errorf("used = %d", b.Used())
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

func TestBuddyOrderFor(t *testing.T) {
	b := mustBuddy(t, 0x4000_0000, 24, 12)
	cases := map[uint64]uint{1: 12, 4096: 12, 4097: 13, 100 << 10: 17}
	for size, want := range cases {
		if got := b.OrderFor(size); got != want {
			t.Errorf("OrderFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestBuddyOrderForOversized(t *testing.T) {
	// Regression: sizes above the region (and in particular above 1<<63,
	// where the probe shift wraps to 0) must clamp at maxOrder+1 instead
	// of looping forever, and Alloc must report out-of-memory.
	b := mustBuddy(t, 0x4000_0000, 24, 12)
	for _, size := range []uint64{(16 << 20) + 1, 1 << 40, 1<<63 + 1, ^uint64(0)} {
		got := b.OrderFor(size)
		if got != 25 {
			t.Errorf("OrderFor(%#x) = %d, want maxOrder+1 (25)", size, got)
		}
		if _, err := b.Alloc(got); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("Alloc(OrderFor(%#x)) = %v, want ErrOutOfMemory", size, err)
		}
	}
	// The region-sized request itself still fits.
	if got := b.OrderFor(16 << 20); got != 24 {
		t.Errorf("OrderFor(16MiB) = %d, want 24", got)
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

func TestBuddyHighWater(t *testing.T) {
	b := mustBuddy(t, 0x4000_0000, 20, 12)
	p, _ := b.Alloc(13)
	_ = b.Free(p)
	if b.HighWater() != 8192 {
		t.Errorf("hwm = %d", b.HighWater())
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

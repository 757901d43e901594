package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 16-byte lines = 128 bytes.
	return New(Config{SizeBytes: 128, LineBytes: 16, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if m := c.Access(0x100, 4, false); m != 1 {
		t.Errorf("cold access misses = %d, want 1", m)
	}
	if m := c.Access(0x104, 4, false); m != 0 {
		t.Errorf("same-line access misses = %d, want 0", m)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLineStraddle(t *testing.T) {
	c := small()
	// 8-byte access at line-12 crosses into the next line: two accesses.
	if m := c.Access(0x10c, 8, false); m != 2 {
		t.Errorf("straddling access misses = %d, want 2", m)
	}
	if c.Stats().Accesses != 2 {
		t.Errorf("accesses = %d, want 2", c.Stats().Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to set 0 (stride = nsets*line = 64 bytes).
	c.Access(0*64, 1, false) // way 0
	c.Access(1*64, 1, false) // way 1
	c.Access(0*64, 1, false) // touch way 0 (now MRU)
	c.Access(2*64, 1, false) // evicts line 1*64 (LRU)
	if m := c.Access(0*64, 1, false); m != 0 {
		t.Error("MRU line was evicted")
	}
	if m := c.Access(1*64, 1, false); m != 1 {
		t.Error("LRU line survived eviction")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small()
	c.Access(0*64, 1, true)  // dirty way 0
	c.Access(1*64, 1, false) // clean way 1
	c.Access(2*64, 1, false) // evict dirty line 0*64
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	c.Access(0*64, 1, true) // reload, dirty again
	c.Flush()
	if wb := c.Stats().Writebacks; wb != 2 {
		t.Errorf("writebacks after flush = %d, want 2", wb)
	}
}

func TestFlushColdAgain(t *testing.T) {
	c := small()
	c.Access(0x40, 1, false)
	c.Flush()
	if m := c.Access(0x40, 1, false); m != 1 {
		t.Error("access after flush hit")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := []Config{
		{SizeBytes: 128, LineBytes: 12, Ways: 2},  // non-pow2 line
		{SizeBytes: 100, LineBytes: 16, Ways: 2},  // size not multiple
		{SizeBytes: 96, LineBytes: 16, Ways: 2},   // 3 sets (non-pow2)
		{SizeBytes: 128, LineBytes: 16, Ways: 0},  // zero ways
		{SizeBytes: 128, LineBytes: -16, Ways: 2}, // negative line
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultGeometry(t *testing.T) {
	c := New(CVA6L1D)
	// Working set within capacity: second pass must be all hits.
	var warm Stats
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			warm = c.Stats()
		}
		for a := uint64(0); a < 16<<10; a += 16 {
			c.Access(a, 8, false)
		}
	}
	if m := c.Stats().Misses - warm.Misses; m != 0 {
		t.Errorf("warm pass misses = %d, want 0", m)
	}
}

func TestThrashingExceedsCapacity(t *testing.T) {
	c := New(CVA6L1D)
	// Working set 4x capacity, streamed twice: second pass still misses.
	span := uint64(4 * CVA6L1D.SizeBytes)
	var first Stats
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			first = c.Stats()
		}
		for a := uint64(0); a < span; a += uint64(CVA6L1D.LineBytes) {
			c.Access(a, 8, false)
		}
	}
	s := c.Stats()
	second := Stats{Accesses: s.Accesses - first.Accesses, Misses: s.Misses - first.Misses}
	if r := second.MissRate(); r < 0.99 {
		t.Errorf("streaming miss rate = %.2f, want ~1.0", r)
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate non-zero")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

// Property: misses never exceed the number of lines touched, and hits+misses
// bookkeeping stays consistent.
func TestQuickAccounting(t *testing.T) {
	f := func(seq []uint32, stores []bool) bool {
		c := small()
		for i, a := range seq {
			store := i < len(stores) && stores[i]
			m := c.Access(uint64(a)%4096, 8, store)
			if m < 0 || m > 2 {
				return false
			}
		}
		st := c.Stats()
		return st.Misses <= st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

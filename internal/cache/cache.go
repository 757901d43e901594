// Package cache models the L1 data cache of the simulated core. The
// paper's Figure-10 analysis attributes the worst wrapped-allocator
// overheads (health, ft) to L1D thrashing caused by per-object metadata,
// and the subheap scheme's win to metadata sharing within blocks; a
// standard set-associative write-back model with LRU replacement is enough
// to reproduce that mechanism.
//
// The model is purely for timing: data always comes from mem.Memory; the
// cache only decides whether an access is a hit or a miss and counts both.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity
}

// CVA6L1D is the default geometry, matching the CVA6 FPGA configuration the
// paper synthesizes (32 KiB, 8-way, 16-byte lines on the Genesys-2 build;
// "relatively small caches" per §5.2.4).
var CVA6L1D = Config{SizeBytes: 32 << 10, LineBytes: 16, Ways: 8}

// Stats accumulates access counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d misses=%d (%.2f%%) writebacks=%d",
		s.Accesses, s.Misses, 100*s.MissRate(), s.Writebacks)
}

// Line state is packed as tag<<2 | dirty<<1 | valid, so the tag probe of
// an 8-way set scans a single 64-byte host cache line; key 0 means
// invalid (a valid key always has bit 0 set). LRU stamps live in a
// parallel array touched only on hit or fill.
const (
	keyValid = 1 << 0
	keyDirty = 1 << 1
)

// way pairs a line's packed key with its LRU stamp. Keeping the two
// side by side means the hit path — key compare plus stamp update —
// touches one host cache line instead of two parallel arrays.
type way struct {
	key uint64 // tag<<2 | dirty<<1 | valid; 0 = invalid
	lru uint64 // last-touch tick
}

// Cache is a set-associative write-back, write-allocate cache model.
type Cache struct {
	cfg Config
	// w holds every way of every set contiguously (set i occupies index
	// range [i*ways, (i+1)*ways)).
	w        []way
	ways     int
	setMask  uint64
	lineBits uint
	setBits  uint // log2(set count); tag = line number >> setBits

	// tick is the LRU clock. It advances exactly once per line touch —
	// the same event Stats counts as an access — so Accesses is derived
	// from tick instead of being incremented separately on the hot path.
	tick  uint64
	stats Stats // Accesses field unused internally; see Stats()

	// mru holds, per set, a pointer to the way of that set's most
	// recently touched line. Access probes it before the full set scan,
	// so the common cases — back-to-back words within one line, and
	// loops alternating between lines that live in different sets — hit
	// with a single key compare and no second function call. The probe
	// is validated against the packed key, and a line occupies at most
	// one way of its set, so an MRU hit is exactly the hit the scan
	// would have found: it can never change hit/miss outcomes, LRU
	// order, or dirty bits. The pointers target c.w's backing array,
	// which is allocated once in New and never reallocated, so they
	// stay valid across Reset.
	mru []*way
}

// New builds a cache; it panics on a non-power-of-two geometry since that
// is a programming error in experiment setup.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	if cfg.Ways <= 0 || cfg.SizeBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		panic("cache: size must be a multiple of line*ways")
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	c := &Cache{cfg: cfg, ways: cfg.Ways, setMask: uint64(nsets - 1)}
	c.lineBits = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	c.setBits = uint(bits.Len64(c.setMask))
	c.w = make([]way, nsets*cfg.Ways)
	c.mru = make([]*way, nsets)
	for i := range c.mru {
		c.mru[i] = &c.w[i*cfg.Ways]
	}
	return c
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = c.tick
	return s
}

// Access simulates one access of size bytes at addr (write if store is
// true) and returns the number of line misses it caused. Accesses that
// straddle line boundaries touch each line once, like the CVA6 LSU which
// splits misaligned accesses.
func (c *Cache) Access(addr uint64, size int, store bool) (misses int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	for ln := first; ln <= last; ln++ {
		c.tick++
		// MRU probe: a single key compare against the set's most
		// recently touched way resolves the overwhelming majority of
		// touches without the set scan in touch.
		if wy := c.mru[ln&c.setMask]; wy.key&^keyDirty == ln>>c.setBits<<2|keyValid {
			wy.lru = c.tick
			if store {
				wy.key |= keyDirty
			}
			continue
		}
		if !c.touch(ln, store) {
			c.stats.Misses++
			misses++
		}
	}
	return misses
}

// TryHit attempts the single-line MRU-hit fast path of Access without a
// function call: it is small enough to inline into the machine's data-
// access hot path. It returns true only when the access touches exactly
// one line and that line is the set's most recently touched way, in which
// case it performs the full effect of Access (tick, LRU stamp, dirty bit;
// zero misses). On false it has no effect at all and the caller must run
// Access, which repeats the probe — the duplicated compare is the price of
// keeping this under the inlining budget. A non-positive size wraps the
// last-byte computation and falls out through the line-mismatch branch, so
// the size<=0 normalization stays Access's business.
func (c *Cache) TryHit(addr uint64, size int, store bool) bool {
	ln := addr >> c.lineBits
	if (addr+uint64(size-1))>>c.lineBits != ln {
		return false
	}
	wy := c.mru[ln&c.setMask]
	if wy.key&^keyDirty != ln>>c.setBits<<2|keyValid {
		return false
	}
	c.tick++
	wy.lru = c.tick
	if store {
		wy.key |= keyDirty
	}
	return true
}

// AccessWords simulates n consecutive 8-byte reads starting at addr —
// exactly equivalent to n successive Access(addr+8*i, 8, false) calls, but
// with one tag probe per distinct line: consecutive same-line touches
// cannot miss after the first (nothing intervenes to evict the line), so a
// group collapses to a single probe whose LRU stamp is the group's last
// tick. Accesses (via tick), misses, writebacks, and LRU order all come
// out bit-identical to the unbatched form; the equivalence test drives
// both against random streams. Promote's multi-word metadata records are
// the intended caller.
func (c *Cache) AccessWords(addr uint64, n int) (misses int) {
	if addr&7 != 0 || c.cfg.LineBytes < 8 {
		// A word could straddle lines; the collapse argument needs whole
		// words per line. No real caller takes this path (metadata is
		// 8-aligned and L1D lines are ≥8 bytes).
		for i := 0; i < n; i++ {
			misses += c.Access(addr+uint64(i)*8, 8, false)
		}
		return misses
	}
	for i := 0; i < n; {
		ln := (addr + uint64(i)*8) >> c.lineBits
		g := i + 1
		for g < n && (addr+uint64(g)*8)>>c.lineBits == ln {
			g++
		}
		c.tick += uint64(g - i)
		i = g
		if wy := c.mru[ln&c.setMask]; wy.key&^keyDirty == ln>>c.setBits<<2|keyValid {
			wy.lru = c.tick
			continue
		}
		if !c.touch(ln, false) {
			c.stats.Misses++
			misses++
		}
	}
	return misses
}

// touch looks up line number ln, filling on miss; reports hit. Access has
// already ruled out the set's MRU way.
func (c *Cache) touch(ln uint64, store bool) bool {
	want := ln>>c.setBits<<2 | keyValid
	set := int(ln & c.setMask)
	base := set * c.ways
	ws := c.w[base : base+c.ways : base+c.ways]
	for i := range ws {
		if ws[i].key&^keyDirty == want {
			ws[i].lru = c.tick
			if store {
				ws[i].key |= keyDirty
			}
			c.mru[set] = &ws[i]
			return true
		}
	}
	// Miss: evict LRU way (first invalid way wins, matching a fill of an
	// un-warmed set).
	victim := 0
	for i := 1; i < c.ways; i++ {
		if ws[i].key == 0 {
			victim = i
			break
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	if ws[victim].key&(keyValid|keyDirty) == keyValid|keyDirty {
		c.stats.Writebacks++
	}
	fill := want
	if store {
		fill |= keyDirty
	}
	ws[victim] = way{key: fill, lru: c.tick}
	c.mru[set] = &ws[victim]
	return false
}

// Reset returns the cache to its power-on state: every line invalid, the
// LRU clock and all counters at zero. It models a cold start rather than
// an invalidation event, so dirty lines do not count as writebacks — a
// reset cache is indistinguishable from one built by New.
func (c *Cache) Reset() {
	clear(c.w)
	c.tick = 0
	c.stats = Stats{}
}

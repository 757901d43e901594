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

// Line state is packed as tag<<2 | dirty<<1 | valid; key 0 means invalid
// (a valid key always has bit 0 set).
const (
	keyValid = 1 << 0
	keyDirty = 1 << 1
)

// Cache is a set-associative write-back, write-allocate cache model.
//
// Each set is a recency list: its keys sit most recently used first, so
// the list order is the LRU order, and an 8-way set of CVA6's L1D is one
// 64-byte host line. A hit on the front key changes nothing but the dirty
// bit; any other hit moves its key to the front; a miss evicts the last
// key and inserts the fill at the front. Fills always enter at the front
// and only Reset invalidates, so invalid keys only ever sit at a set's
// tail: the last key is the set's first invalid way when it has one and
// its least recently used line otherwise, which is LRU's victim with
// invalid ways filled first.
type Cache struct {
	cfg Config
	// keys holds every set's keys contiguously (set i occupies index
	// range [i*ways, (i+1)*ways)), each set most recently used first.
	keys     []uint64
	ways     int
	setMask  uint64
	lineBits uint
	setBits  uint // log2(set count); tag = line number >> setBits

	// tick counts line touches — the event Stats counts as an access —
	// so Accesses is derived from it instead of being incremented
	// separately on the hot path.
	tick  uint64
	stats Stats // Accesses field unused internally; see Stats()
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
	c.keys = make([]uint64, nsets*cfg.Ways)
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
		// Front-key probe: back-to-back words within one line, and loops
		// alternating between lines in different sets, hit the set's
		// most recently used key with one compare and no call.
		if i := int(ln&c.setMask) * c.ways; c.keys[i]&^keyDirty == ln>>c.setBits<<2|keyValid {
			if store {
				c.keys[i] |= keyDirty
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

// TryHit attempts the front-key fast path of Access without a function
// call: it is small enough to inline into the machine's data-access hot
// path. It returns true only when the access touches exactly one line and
// that line is its set's most recently used, in which case it performs the
// full effect of Access (tick, dirty bit; zero misses; the recency order
// is already right). On false it has no effect at all and the caller must
// run Access, which repeats the probe — the duplicated compare is the
// price of keeping this under the inlining budget. A non-positive size
// wraps the last-byte computation and falls out through the line-mismatch
// branch, so the size<=0 normalization stays Access's business.
func (c *Cache) TryHit(addr uint64, size int, store bool) bool {
	ln := addr >> c.lineBits
	if (addr+uint64(size-1))>>c.lineBits != ln {
		return false
	}
	i := int(ln&c.setMask) * c.ways
	if c.keys[i]&^keyDirty != ln>>c.setBits<<2|keyValid {
		return false
	}
	c.tick++
	if store {
		c.keys[i] |= keyDirty
	}
	return true
}

// AccessWords simulates n consecutive 8-byte reads starting at addr —
// exactly equivalent to n successive Access(addr+8*i, 8, false) calls, but
// with one tag probe per distinct line: consecutive same-line touches
// cannot miss after the first (nothing intervenes to evict the line, and
// the first leaves it at the front of its set), so a group collapses to a
// single probe. Accesses (via tick), misses, writebacks, and LRU order all
// come out bit-identical to the unbatched form; the equivalence test
// drives both against random streams. Promote's multi-word metadata
// records are the intended caller.
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
		if c.keys[int(ln&c.setMask)*c.ways]&^keyDirty == ln>>c.setBits<<2|keyValid {
			continue
		}
		if !c.touch(ln, false) {
			c.stats.Misses++
			misses++
		}
	}
	return misses
}

// touch looks line number ln up in its set, whose front key the caller has
// already ruled out, and moves it to the front: a hit keeps its dirty bit,
// a miss evicts the set's last key (counting a writeback when that key is
// valid and dirty) and fills. It reports whether ln hit.
func (c *Cache) touch(ln uint64, store bool) bool {
	want := ln>>c.setBits<<2 | keyValid
	base := int(ln&c.setMask) * c.ways
	ks := c.keys[base : base+c.ways : base+c.ways]
	i := 1
	for i < len(ks) && ks[i]&^keyDirty != want {
		i++
	}
	hit := i < len(ks)
	k := want
	if hit {
		k = ks[i]
	} else {
		i = len(ks) - 1
		if ks[i]&(keyValid|keyDirty) == keyValid|keyDirty {
			c.stats.Writebacks++
		}
	}
	copy(ks[1:i+1], ks[:i])
	if store {
		k |= keyDirty
	}
	ks[0] = k
	return hit
}

// Reset returns the cache to its power-on state: every line invalid and
// every counter at zero. It models a cold start rather than an
// invalidation event, so dirty lines do not count as writebacks — a reset
// cache is indistinguishable from one built by New.
func (c *Cache) Reset() {
	clear(c.keys)
	c.tick = 0
	c.stats = Stats{}
}

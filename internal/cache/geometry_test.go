package cache

import (
	"fmt"
	"testing"
)

// refLen64 is the hand-rolled bit-length loop New used before the
// math/bits conversion; the geometry sweep pins the replacement to it.
func refLen64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// refLineBits is the old shift-count loop for log2(LineBytes).
func refLineBits(lineBytes int) uint {
	var n uint
	for b := lineBytes; b > 1; b >>= 1 {
		n++
	}
	return n
}

// TestGeometryAllPowerOfTwoConfigs sweeps every power-of-two geometry in a
// generous envelope (line sizes 1..256, associativity 1..16, set counts
// 1..4096) and asserts the bits/masks New derives with math/bits match the
// hand-rolled reference loops bit for bit. This is the contract that keeps
// the tag/set/line decomposition — and therefore every modeled hit, miss,
// and writeback — identical across the refactor.
func TestGeometryAllPowerOfTwoConfigs(t *testing.T) {
	for lineBytes := 1; lineBytes <= 256; lineBytes <<= 1 {
		for ways := 1; ways <= 16; ways <<= 1 {
			for nsets := 1; nsets <= 4096; nsets <<= 1 {
				cfg := Config{
					SizeBytes: nsets * ways * lineBytes,
					LineBytes: lineBytes,
					Ways:      ways,
				}
				c := New(cfg)
				if got, want := c.lineBits, refLineBits(lineBytes); got != want {
					t.Fatalf("%+v: lineBits = %d, want %d", cfg, got, want)
				}
				if got, want := c.setMask, uint64(nsets-1); got != want {
					t.Fatalf("%+v: setMask = %#x, want %#x", cfg, got, want)
				}
				if got, want := int(c.setBits), refLen64(c.setMask); got != want {
					t.Fatalf("%+v: setBits = %d, want %d", cfg, got, want)
				}
				if got, want := len(c.keys), nsets*ways; got != want {
					t.Fatalf("%+v: len(ways) = %d, want %d", cfg, got, want)
				}
			}
		}
	}
}

// refCache is the pre-refactor cache model (a struct per line, two chained
// fields for valid/dirty) reproduced verbatim as a differential oracle.
type refCache struct {
	sets     [][]refLine
	setMask  uint64
	lineBits uint
	tick     uint64
	stats    Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &refCache{setMask: uint64(nsets - 1), lineBits: refLineBits(cfg.LineBytes)}
	c.sets = make([][]refLine, nsets)
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

func (c *refCache) access(addr uint64, size int, store bool) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	for ln := first; ln <= last; ln++ {
		c.tick++
		c.stats.Accesses++
		if !c.touch(ln, store) {
			c.stats.Misses++
		}
	}
}

func (c *refCache) touch(ln uint64, store bool) bool {
	set := c.sets[ln&c.setMask]
	tagv := ln >> uint(refLen64(c.setMask))
	for i := range set {
		if set[i].valid && set[i].tag == tagv {
			set[i].lru = c.tick
			if store {
				set[i].dirty = true
			}
			return true
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
	}
	set[victim] = refLine{tag: tagv, valid: true, dirty: store, lru: c.tick}
	return false
}

// TestAccessWordsMatchesUnbatched drives AccessWords and the equivalent
// sequence of single-word Access calls over identical pseudorandom streams
// on two caches and asserts the stats, miss returns, and subsequent
// behavior (via a trailing shared stream) agree exactly — the batching
// contract promote's metadata fetches rely on.
func TestAccessWordsMatchesUnbatched(t *testing.T) {
	configs := []Config{
		CVA6L1D,
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1},
		{SizeBytes: 512, LineBytes: 64, Ways: 8},
		{SizeBytes: 128, LineBytes: 8, Ways: 2}, // lines == word size
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("%dB_%dw_%dl", cfg.SizeBytes, cfg.Ways, cfg.LineBytes), func(t *testing.T) {
			batched, plain := New(cfg), New(cfg)
			x := uint64(0x243F6A8885A308D3)
			next := func() uint64 {
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				return z ^ (z >> 31)
			}
			for i := 0; i < 20_000; i++ {
				r := next()
				if r&3 == 0 {
					// Multi-word record fetch, 8-aligned (the real call
					// shape) and occasionally unaligned (fallback path).
					addr := r >> 8 & 0xFFFF8
					if r&4 != 0 {
						addr |= r >> 40 & 7
					}
					n := 1 + int(r>>32&3) // 1..4 words
					gotB := batched.AccessWords(addr, n)
					gotP := 0
					for w := 0; w < n; w++ {
						gotP += plain.Access(addr+uint64(w)*8, 8, false)
					}
					if gotB != gotP {
						t.Fatalf("op %d: AccessWords(%#x,%d) misses = %d, unbatched %d", i, addr, n, gotB, gotP)
					}
				} else {
					// Interleaved ordinary traffic keeps eviction state hot.
					addr := r >> 16 & 0x1FFFF
					size := 1 << (r >> 2 & 3)
					store := r&2 != 0
					if mb, mp := batched.Access(addr, size, store), plain.Access(addr, size, store); mb != mp {
						t.Fatalf("op %d: Access misses diverge: %d vs %d", i, mb, mp)
					}
				}
				if batched.Stats() != plain.Stats() {
					t.Fatalf("op %d: stats = %+v, unbatched %+v", i, batched.Stats(), plain.Stats())
				}
			}
			batched.Flush()
			plain.Flush()
			if batched.Stats() != plain.Stats() {
				t.Fatalf("post-flush stats = %+v, unbatched %+v", batched.Stats(), plain.Stats())
			}
		})
	}
}

// TestPackedKeysMatchReferenceModel drives the packed-key cache and the
// pre-refactor per-line-struct model through the same pseudorandom access
// stream across several geometries (including degenerate 1-way and 1-set
// shapes) and asserts every counter agrees — the behavioral half of the
// geometry pin.
func TestPackedKeysMatchReferenceModel(t *testing.T) {
	configs := []Config{
		CVA6L1D,
		{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1}, // direct-mapped
		{SizeBytes: 512, LineBytes: 64, Ways: 8},     // single set
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 4},
		{SizeBytes: 64, LineBytes: 8, Ways: 2}, // tiny: constant thrash
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("%dB_%dw_%dl", cfg.SizeBytes, cfg.Ways, cfg.LineBytes), func(t *testing.T) {
			c := New(cfg)
			ref := newRefCache(cfg)
			// splitmix64 stream: deterministic, full 64-bit coverage.
			x := uint64(0x9E3779B97F4A7C15)
			next := func() uint64 {
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				return z ^ (z >> 31)
			}
			for i := 0; i < 50_000; i++ {
				r := next()
				// Mix hot (small window) and cold (wide) addresses so hits,
				// misses, evictions, and line straddles all occur.
				addr := r >> 16 & 0xFFFF
				if r&1 == 0 {
					addr = r >> 8 & 0xFFFFFF
				}
				size := 1 << (r >> 2 & 3) // 1,2,4,8
				store := r&2 != 0
				c.Access(addr, size, store)
				ref.access(addr, size, store)
				if i%4096 == 0 && c.Stats() != ref.stats {
					t.Fatalf("op %d: stats = %+v, ref %+v", i, c.Stats(), ref.stats)
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("final stats = %+v, ref %+v", c.Stats(), ref.stats)
			}
			// Flush writebacks must agree too: same dirty lines resident.
			c.Flush()
			for _, set := range ref.sets {
				for i := range set {
					if set[i].valid && set[i].dirty {
						ref.stats.Writebacks++
					}
				}
			}
			if got, want := c.Stats().Writebacks, ref.stats.Writebacks; got != want {
				t.Fatalf("post-flush writebacks = %d, want %d", got, want)
			}
		})
	}
}

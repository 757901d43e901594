package cache

import (
	"encoding/binary"
	"testing"
)

// fuzzGeometries are the shapes FuzzCacheModel picks from: the default,
// direct-mapped, single-set and a tiny constantly thrashing cache.
var fuzzGeometries = []Config{
	CVA6L1D,
	{SizeBytes: 1 << 10, LineBytes: 16, Ways: 1},
	{SizeBytes: 512, LineBytes: 64, Ways: 8},
	{SizeBytes: 64, LineBytes: 8, Ways: 2},
}

// fuzzOp applies one four-byte op of FuzzCacheModel's stream to both
// models. The first byte's low two bits pick the kind; its top bit widens
// the address window from 64 KiB to 1 MiB (the last byte's high nibble
// then supplies the address's low four bits), bit 6 makes a store and
// bit 5 leaves a word fetch unaligned. Bytes 1–2 are the address, and the
// last byte's low nibble the size or word count.
func fuzzOp(c *Cache, ref *refCache, cfg Config, op []byte, t *testing.T) *refCache {
	t.Helper()
	addr := uint64(binary.LittleEndian.Uint16(op[1:]))
	if op[0]&0x80 != 0 {
		addr = addr<<4 | uint64(op[3]>>4)
	}
	store := op[0]&0x40 != 0
	size := 1 + int(op[3]%16)
	want := ref.stats.Misses
	switch op[0] % 4 {
	case 0:
		got := c.Access(addr, size, store)
		ref.access(addr, size, store)
		if uint64(got) != ref.stats.Misses-want {
			t.Fatalf("Access(%#x, %d, %v) = %d misses, reference %d", addr, size, store, got, ref.stats.Misses-want)
		}
	case 1: // the machine's pair: the inline front-key probe, then the full model
		got := 0
		if !c.TryHit(addr, size, store) {
			got = c.Access(addr, size, store)
		}
		ref.access(addr, size, store)
		if uint64(got) != ref.stats.Misses-want {
			t.Fatalf("TryHit/Access(%#x, %d, %v) = %d misses, reference %d", addr, size, store, got, ref.stats.Misses-want)
		}
	case 2:
		if op[0]&0x20 == 0 {
			addr &^= 7 // the real call shape; unaligned takes the fallback
		}
		n := 1 + int(op[3]%4)
		got := c.AccessWords(addr, n)
		for i := 0; i < n; i++ {
			ref.access(addr+uint64(i)*8, 8, false)
		}
		if uint64(got) != ref.stats.Misses-want {
			t.Fatalf("AccessWords(%#x, %d) = %d misses, reference %d", addr, n, got, ref.stats.Misses-want)
		}
	case 3:
		c.Reset()
		ref = newRefCache(cfg)
	}
	if c.Stats() != ref.stats {
		t.Fatalf("op %x: stats = %+v, reference %+v", op, c.Stats(), ref.stats)
	}
	return ref
}

// FuzzCacheModel drives the cache and the LRU-stamp reference model
// (refCache) through a fuzzed op stream on a fuzzed geometry and compares
// every return value and Stats after each op, and Flush's writebacks at
// the end.
func FuzzCacheModel(f *testing.F) {
	for g := range fuzzGeometries {
		f.Add(append([]byte{byte(g)}, packedKeysOps(512)...))
		f.Add(append([]byte{byte(g)}, accessWordsOps(512)...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfg := fuzzGeometries[int(in[0])%len(fuzzGeometries)]
		c, ref := New(cfg), newRefCache(cfg)
		for ops := in[1:]; len(ops) >= 4; ops = ops[4:] {
			ref = fuzzOp(c, ref, cfg, ops[:4], t)
		}
		c.Flush()
		for _, set := range ref.sets {
			for _, l := range set {
				if l.valid && l.dirty {
					ref.stats.Writebacks++
				}
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("post-flush stats = %+v, reference %+v", c.Stats(), ref.stats)
		}
	})
}

// splitmix returns the splitmix64 stream of the differential tests above,
// started at x.
func splitmix(x uint64) func() uint64 {
	return func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}

// encodeOp packs one op in fuzzOp's format; addr must be below 1 MiB and
// arg below 16.
func encodeOp(kind byte, addr uint64, store, unaligned bool, arg byte) []byte {
	if store {
		kind |= 0x40
	}
	if unaligned {
		kind |= 0x20
	}
	if addr > 0xFFFF {
		kind |= 0x80
		arg |= byte(addr&15) << 4
		addr >>= 4
	}
	return []byte{kind, byte(addr), byte(addr >> 8), arg}
}

// packedKeysOps encodes the first n accesses of
// TestPackedKeysMatchReferenceModel's stream, its wide addresses folded
// into the 1 MiB window.
func packedKeysOps(n int) []byte {
	next := splitmix(0x9E3779B97F4A7C15)
	var out []byte
	for i := 0; i < n; i++ {
		r := next()
		addr := r >> 16 & 0xFFFF
		if r&1 == 0 {
			addr = r >> 8 & 0xFFFFF
		}
		out = append(out, encodeOp(0, addr, r&2 != 0, false, byte(1<<(r>>2&3)-1))...)
	}
	return out
}

// accessWordsOps encodes the first n ops of
// TestAccessWordsMatchesUnbatched's stream, its plain accesses as the
// machine's TryHit/Access pairs.
func accessWordsOps(n int) []byte {
	next := splitmix(0x243F6A8885A308D3)
	var out []byte
	for i := 0; i < n; i++ {
		r := next()
		if r&3 == 0 {
			addr := r >> 8 & 0xFFFF8
			if r&4 != 0 {
				addr |= r >> 40 & 7
			}
			out = append(out, encodeOp(2, addr, false, r&4 != 0, byte(r>>32&3))...)
		} else {
			out = append(out, encodeOp(1, r>>16&0x1FFFF, r&2 != 0, false, byte(1<<(r>>2&3)-1))...)
		}
	}
	return out
}

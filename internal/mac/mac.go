// Package mac implements the 48-bit metadata MAC used by In-Fat Pointer
// object metadata (§3.3): a keyed MAC over the metadata fields detects
// tampering by legacy code or temporal errors. The paper's prototype stores
// a 48-bit MAC; any keyed PRF works, so we use SipHash-2-4 (implemented
// from scratch — the repository is stdlib-only) truncated to 48 bits.
package mac

import (
	"encoding/binary"
	"math/bits"
)

// Size is the MAC width in bits as stored in object metadata.
const Size = 48

// Mask selects the low 48 bits of a SipHash output.
const Mask = uint64(1)<<Size - 1

// Key is a 128-bit SipHash key. The runtime generates one per process
// (ifpmac reads it from a control register in the hardware).
type Key struct {
	K0, K1 uint64
}

// NewKey derives a Key from a seed deterministically. Simulation runs use a
// fixed seed for reproducibility; the real hardware would use an entropy
// source at boot.
func NewKey(seed uint64) Key {
	// SplitMix64 expansion of the seed into two words.
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	return Key{K0: next(), K1: next()}
}

// halfRound is one half of a SipRound, over two independent lanes: the
// SipHash reference implementation's HALF_ROUND. A full round is
// halfRound(v0, v1, v2, v3, 13, 16) followed by
// halfRound(v2, v1, v0, v3, 17, 21). It is small enough to inline, with
// the rotations folded to constants, which a whole round is not.
func halfRound(a, b, c, d uint64, s, t int) (uint64, uint64, uint64, uint64) {
	a += b
	c += d
	b = bits.RotateLeft64(b, s) ^ a
	d = bits.RotateLeft64(d, t) ^ c
	return bits.RotateLeft64(a, 32), b, c, d
}

func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0, v1, v2, v3 = halfRound(v0, v1, v2, v3, 13, 16)
	v2, v1, v0, v3 = halfRound(v2, v1, v0, v3, 17, 21)
	return v0, v1, v2, v3
}

// Sum64 computes SipHash-2-4 of data under k.
func Sum64(k Key, data []byte) uint64 {
	v0 := k.K0 ^ 0x736f6d6570736575
	v1 := k.K1 ^ 0x646f72616e646f6d
	v2 := k.K0 ^ 0x6c7967656e657261
	v3 := k.K1 ^ 0x7465646279746573

	n := len(data)
	for len(data) >= 8 {
		m := binary.LittleEndian.Uint64(data)
		v3 ^= m
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
		data = data[8:]
	}
	var last uint64
	for i, b := range data {
		last |= uint64(b) << (8 * uint(i))
	}
	last |= uint64(n&0xff) << 56
	v3 ^= last
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= last

	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	return v0 ^ v1 ^ v2 ^ v3
}

// Object computes the 48-bit metadata MAC over an object's identity: its
// base address, size, and layout-table pointer. This is the value the
// ifpmac instruction produces and promote verifies (§3.3, §4.1).
//
// It equals Sum64 over the 24-byte little-endian encoding of the three
// words, masked to 48 bits, but runs SipHash-2-4 on the words directly:
// three message blocks, the length block (24, no tail bytes), and the
// finalization, every round inlined. TestObjectMatchesSum64 and FuzzObject
// hold it to Sum64.
func Object(k Key, base, size, layoutPtr uint64) uint64 {
	v0 := k.K0 ^ 0x736f6d6570736575
	v1 := k.K1 ^ 0x646f72616e646f6d
	v2 := k.K0 ^ 0x6c7967656e657261
	v3 := k.K1 ^ 0x7465646279746573
	for _, m := range [4]uint64{base, size, layoutPtr, 24 << 56} {
		v3 ^= m
		v0, v1, v2, v3 = halfRound(v0, v1, v2, v3, 13, 16)
		v2, v1, v0, v3 = halfRound(v2, v1, v0, v3, 17, 21)
		v0, v1, v2, v3 = halfRound(v0, v1, v2, v3, 13, 16)
		v2, v1, v0, v3 = halfRound(v2, v1, v0, v3, 17, 21)
		v0 ^= m
	}
	v2 ^= 0xff
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = halfRound(v0, v1, v2, v3, 13, 16)
		v2, v1, v0, v3 = halfRound(v2, v1, v0, v3, 17, 21)
	}
	return (v0 ^ v1 ^ v2 ^ v3) & Mask
}

package mac

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// SipHash-2-4 reference vectors from the SipHash paper (Appendix A):
// key = 00 01 02 ... 0f, messages are 00, 00 01, 00 01 02, ...
var sipVectors = []uint64{
	0x726fdb47dd0e0e31, 0x74f839c593dc67fd, 0x0d6c8009d9a94f5a,
	0x85676696d7fb7e2d, 0xcf2794e0277187b7, 0x18765564cd99a68d,
	0xcbc9466e58fee3ce, 0xab0200f58b01d137, 0x93f5f5799a932462,
	0x9e0082df0ba9e4b0, 0x7a5dbbc594ddb9f3, 0xf4b32f46226bada7,
	0x751e8fbc860ee5fb, 0x14ea5627c0843d90, 0xf723ca908e7af2ee,
	0xa129ca6149be45e5, 0x3f2acc7f57c29bdb,
}

func TestSipHashReferenceVectors(t *testing.T) {
	k := Key{
		K0: binary.LittleEndian.Uint64([]byte{0, 1, 2, 3, 4, 5, 6, 7}),
		K1: binary.LittleEndian.Uint64([]byte{8, 9, 10, 11, 12, 13, 14, 15}),
	}
	msg := make([]byte, 0, len(sipVectors))
	for i, want := range sipVectors {
		if got := Sum64(k, msg); got != want {
			t.Errorf("vector %d: got %#x, want %#x", i, got, want)
		}
		msg = append(msg, byte(i))
	}
}

func TestObjectIs48Bits(t *testing.T) {
	k := NewKey(42)
	f := func(base, size, lt uint64) bool {
		return Object(k, base, size, lt)>>Size == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObjectKeyed(t *testing.T) {
	// Different keys must produce different MACs for the same object
	// (overwhelmingly), and the same key the same MAC.
	k1, k2 := NewKey(1), NewKey(2)
	if k1 == k2 {
		t.Fatal("NewKey not seed-sensitive")
	}
	m1 := Object(k1, 0x1000, 64, 0x2000)
	if m1 != Object(k1, 0x1000, 64, 0x2000) {
		t.Error("MAC not deterministic")
	}
	if m1 == Object(k2, 0x1000, 64, 0x2000) {
		t.Error("MAC ignores key")
	}
}

func TestObjectFieldSensitivity(t *testing.T) {
	// Tampering with any single metadata field must change the MAC: this is
	// the §3.3 integrity property promote relies on.
	k := NewKey(7)
	ref := Object(k, 0x1000, 64, 0x2000)
	for _, tamper := range []struct {
		name             string
		base, size, lptr uint64
	}{
		{"base", 0x1008, 64, 0x2000},
		{"size", 0x1000, 128, 0x2000},
		{"layout", 0x1000, 64, 0x2010},
	} {
		if Object(k, tamper.base, tamper.size, tamper.lptr) == ref {
			t.Errorf("tampered %s field kept the same MAC", tamper.name)
		}
	}
}

// objectRef is Object's definition: Sum64 over the 24-byte little-endian
// encoding of the three words, masked to 48 bits.
func objectRef(k Key, base, size, layoutPtr uint64) uint64 {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], base)
	binary.LittleEndian.PutUint64(buf[8:], size)
	binary.LittleEndian.PutUint64(buf[16:], layoutPtr)
	return Sum64(k, buf[:]) & Mask
}

func TestObjectMatchesSum64(t *testing.T) {
	f := func(k0, k1, base, size, lt uint64) bool {
		k := Key{K0: k0, K1: k1}
		return Object(k, base, size, lt) == objectRef(k, base, size, lt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	edges := []uint64{0, Mask, ^uint64(0)}
	for _, k0 := range edges {
		for _, k1 := range edges {
			k := Key{K0: k0, K1: k1}
			for _, base := range edges {
				for _, size := range edges {
					for _, lt := range edges {
						if got, want := Object(k, base, size, lt), objectRef(k, base, size, lt); got != want {
							t.Errorf("Object(%#x, %#x, %#x, %#x) = %#x, Sum64 gives %#x", k, base, size, lt, got, want)
						}
					}
				}
			}
		}
	}
}

func FuzzObject(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0x0706050403020100), uint64(0x0f0e0d0c0b0a0908), uint64(0x1000), uint64(64), Mask)
	f.Fuzz(func(t *testing.T, k0, k1, base, size, lt uint64) {
		k := Key{K0: k0, K1: k1}
		if got, want := Object(k, base, size, lt), objectRef(k, base, size, lt); got != want {
			t.Fatalf("Object(%#x, %#x, %#x, %#x) = %#x, Sum64 gives %#x", k, base, size, lt, got, want)
		}
	})
}

func TestNewKeyDeterministic(t *testing.T) {
	if NewKey(99) != NewKey(99) {
		t.Error("NewKey not deterministic for a fixed seed")
	}
}

func BenchmarkObjectMAC(b *testing.B) {
	k := NewKey(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Object(k, uint64(i), 64, 0x2000)
	}
}

package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(0x1000 + size*64)
		want := uint64(0x1122334455667788) & (^uint64(0) >> (64 - 8*uint(size)))
		if err := m.StoreN(addr, 0x1122334455667788, size); err != nil {
			t.Fatalf("store size %d: %v", size, err)
		}
		got, err := m.LoadN(addr, size)
		if err != nil {
			t.Fatalf("load size %d: %v", size, err)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestLittleEndian(t *testing.T) {
	m := New()
	if err := m.Store64(0x2000, 0x0807060504030201); err != nil {
		t.Fatal(err)
	}
	b, err := m.LoadN(0x2000, 1)
	if err != nil || b != 0x01 {
		t.Errorf("byte 0 = %#x (err %v), want 0x01", b, err)
	}
	b, err = m.LoadN(0x2007, 1)
	if err != nil || b != 0x08 {
		t.Errorf("byte 7 = %#x (err %v), want 0x08", b, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // straddles the first page boundary
	if err := m.Store64(addr, 0xcafebabedeadbeef); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load64(addr)
	if err != nil || got != 0xcafebabedeadbeef {
		t.Errorf("cross-page load = %#x (err %v)", got, err)
	}
	if m.MappedBytes() != 2*PageSize {
		t.Errorf("mapped = %d, want two pages", m.MappedBytes())
	}
}

func TestBulkReadWrite(t *testing.T) {
	m := New()
	src := make([]byte, 3*PageSize+17)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.Write(0x8000, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.Read(0x8000, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("bulk round-trip mismatch")
	}
}

func TestUnsupportedSize(t *testing.T) {
	m := New()
	if _, err := m.LoadN(0, 3); err == nil {
		t.Error("LoadN size 3 did not fault")
	}
	if err := m.StoreN(0, 0, 5); err == nil {
		t.Error("StoreN size 5 did not fault")
	}
}

func TestAddressWrapFaults(t *testing.T) {
	m := New()
	if err := m.Write(^uint64(0)-2, []byte{1, 2, 3, 4}); err == nil {
		t.Error("wrapping store did not fault")
	}
	if err := m.Read(^uint64(0)-2, make([]byte, 4)); err == nil {
		t.Error("wrapping load did not fault")
	}
	var f *Fault
	err := m.Write(^uint64(0), []byte{1, 2})
	if f, _ = err.(*Fault); f == nil || !f.Write {
		t.Errorf("fault = %v", err)
	}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestDemandMapping(t *testing.T) {
	m := New()
	if m.MappedBytes() != 0 {
		t.Fatal("fresh memory has mapped pages")
	}
	// Reads demand-map (overcommit model) and see zeros.
	v, err := m.Load64(0x5000)
	if err != nil || v != 0 {
		t.Errorf("fresh load = %#x (err %v)", v, err)
	}
	if m.MappedBytes() != PageSize {
		t.Errorf("mapped = %d after one-page touch", m.MappedBytes())
	}
	m.Map(0x10000, 3*PageSize)
	if m.MappedBytes() != 4*PageSize {
		t.Errorf("mapped = %d after Map of 3 pages", m.MappedBytes())
	}
	m.Map(0x10000, 0) // no-op
	if m.MappedBytes() != 4*PageSize {
		t.Error("zero-size Map changed footprint")
	}
}

func TestSnapshotSorted(t *testing.T) {
	m := New()
	m.Map(5*PageSize, 1)
	m.Map(1*PageSize, 1)
	m.Map(9*PageSize, 1)
	pns := m.Snapshot()
	if len(pns) != 3 || pns[0] != 1 || pns[1] != 5 || pns[2] != 9 {
		t.Errorf("snapshot = %v", pns)
	}
}

// Property: a store followed by a load of the same size at the same address
// returns the truncated value, regardless of alignment.
func TestQuickStoreLoad(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr %= 1 << 30 // keep the page map small
		if err := m.StoreN(addr, v, size); err != nil {
			return false
		}
		got, err := m.LoadN(addr, size)
		return err == nil && got == v&(^uint64(0)>>(64-8*uint(size)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: non-overlapping writes do not disturb each other.
func TestQuickWriteIsolation(t *testing.T) {
	f := func(a8, b8 uint8, va, vb uint64) bool {
		m := New()
		a := uint64(a8) * 8
		b := uint64(b8)*8 + 4096
		if err := m.Store64(a, va); err != nil {
			return false
		}
		if err := m.Store64(b, vb); err != nil {
			return false
		}
		ga, _ := m.Load64(a)
		gb, _ := m.Load64(b)
		return ga == va && gb == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

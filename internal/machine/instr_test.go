package machine

import (
	"fmt"
	"testing"

	"infat/internal/layout"
	"infat/internal/mac"
	"infat/internal/metadata"
	"infat/internal/tag"
)

func TestIfpAddMaintainsGranuleOffset(t *testing.T) {
	// A local-offset pointer moved forward must keep addressing the same
	// metadata: the granule offset shrinks as the address approaches it.
	m := New()
	p := setupLocal(t, m, 0x1000, 100, nil)
	offBefore, _ := tag.LocalFields(p)
	q := m.IfpAdd(p, 32, Cleared)
	offAfter, _ := tag.LocalFields(q)
	if offAfter != offBefore-2 {
		t.Errorf("granule offset %d -> %d, want -2 granules", offBefore, offAfter)
	}
	// Promote through the moved pointer still finds the object.
	_, b := m.Promote(q)
	if !b.Valid || b.B.Lower != 0x1000 {
		t.Errorf("bounds after move = %+v", b)
	}
}

func TestIfpAddSubGranuleMove(t *testing.T) {
	m := New()
	p := setupLocal(t, m, 0x1000, 100, nil)
	offBefore, _ := tag.LocalFields(p)
	q := m.IfpAdd(p, 7, Cleared) // within the same granule
	offAfter, _ := tag.LocalFields(q)
	if offAfter != offBefore {
		t.Errorf("sub-granule move changed offset %d -> %d", offBefore, offAfter)
	}
}

func TestIfpAddWildUnderflowPoisons(t *testing.T) {
	// Moving the pointer below the object so far that the metadata offset
	// is unencodable loses the metadata irrecoverably.
	m := New()
	p := setupLocal(t, m, 0x10000, 64, nil)
	q := m.IfpAdd(p, -int64(tag.MaxLocalOffset+2)*tag.Granule, Cleared)
	if tag.PoisonOf(q) != tag.Invalid {
		t.Errorf("poison = %v, want invalid", tag.PoisonOf(q))
	}
	// And arithmetic on an invalid pointer keeps it invalid.
	r := m.IfpAdd(q, 1024, Cleared)
	if tag.PoisonOf(r) != tag.Invalid {
		t.Error("invalid pointer revalidated by arithmetic")
	}
}

func TestIfpAddPoisonAgainstBounds(t *testing.T) {
	m := New()
	b := BoundsReg{B: layout.Bounds{Lower: 0x1000, Upper: 0x1040}, Valid: true}
	p := uint64(0x1000) | uint64(tag.SchemeGlobalTable)<<60 // any tagged scheme
	p = tag.MakeGlobal(0x1000, 1)
	q := m.IfpAdd(p, 0x40, b) // one past the end
	if tag.PoisonOf(q) != tag.OOB {
		t.Errorf("poison = %v, want oob", tag.PoisonOf(q))
	}
	q = m.IfpAdd(q, -8, b) // back inside
	if tag.PoisonOf(q) != tag.Valid {
		t.Errorf("poison = %v, want valid", tag.PoisonOf(q))
	}
	q = m.IfpAdd(q, 0x5000, b) // wildly out
	if tag.PoisonOf(q) != tag.OOB {
		t.Errorf("poison = %v, want oob", tag.PoisonOf(q))
	}
}

func TestIfpAddWithoutBoundsKeepsOOB(t *testing.T) {
	m := New()
	p := tag.WithPoison(tag.MakeGlobal(0x2000, 1), tag.OOB)
	q := m.IfpAdd(p, -16, Cleared)
	if tag.PoisonOf(q) != tag.OOB {
		t.Errorf("poison = %v; without bounds the state cannot improve", tag.PoisonOf(q))
	}
}

func TestIfpBndCreatesExactBounds(t *testing.T) {
	m := New()
	b := m.IfpBnd(0x4000, 128)
	if !b.Valid || b.B.Lower != 0x4000 || b.B.Upper != 0x4080 {
		t.Errorf("bounds = %+v", b)
	}
	if m.C.IfpBnd != 1 {
		t.Error("counter")
	}
}

func TestIfpChk(t *testing.T) {
	m := New()
	b := m.IfpBnd(0x4000, 16)
	ok := m.IfpChk(0x4008, 8, b)
	if tag.PoisonOf(ok) != tag.Valid {
		t.Errorf("in-bounds check poisoned: %v", tag.PoisonOf(ok))
	}
	bad := m.IfpChk(0x4008, 16, b) // 8 bytes past the end
	if tag.PoisonOf(bad) != tag.Invalid {
		t.Errorf("failed check poison = %v, want invalid", tag.PoisonOf(bad))
	}
	if m.C.CheckFails != 1 || m.C.Checks != 2 {
		t.Errorf("check counters = %+v", m.C)
	}
	// Cleared bounds: unchecked.
	if q := m.IfpChk(0x9999, 64, Cleared); q != 0x9999 {
		t.Error("cleared-bounds check modified pointer")
	}
}

func TestIfpExtractDemote(t *testing.T) {
	m := New()
	b := m.IfpBnd(0x4000, 16)
	p := tag.MakeLocal(0x4010, 1, 0) // one past the end
	q := m.IfpExtract(p, b)
	if tag.PoisonOf(q) != tag.OOB {
		t.Errorf("demote poison = %v, want oob", tag.PoisonOf(q))
	}
	// The tag itself survives demotion — tags persist in memory.
	if tag.SchemeOf(q) != tag.SchemeLocalOffset {
		t.Error("demote stripped the scheme tag")
	}
	// Demote with cleared bounds is a pure move.
	if q := m.IfpExtract(p, Cleared); q != p {
		t.Error("cleared-bounds demote modified pointer")
	}
	// An invalid pointer stays invalid even if bounds would approve it.
	inv := tag.WithPoison(tag.MakeLocal(0x4004, 1, 0), tag.Invalid)
	if tag.PoisonOf(m.IfpExtract(inv, b)) != tag.Invalid {
		t.Error("demote revalidated an invalid pointer")
	}
}

func TestIfpMacMatchesLibrary(t *testing.T) {
	m := New()
	got := m.IfpMac(0x1000, 64, 0x2000)
	if got != mac.Object(m.Key, 0x1000, 64, 0x2000) {
		t.Error("ifpmac disagrees with mac.Object")
	}
	if m.C.IfpMac != 1 {
		t.Error("counter")
	}
}

func TestIfpMdBuilders(t *testing.T) {
	m := New()
	if p := m.IfpMdLocal(0x1000, 3, 2); tag.SchemeOf(p) != tag.SchemeLocalOffset {
		t.Error("local md")
	}
	if p := m.IfpMdSubheap(0x1000, 1, 2); tag.SchemeOf(p) != tag.SchemeSubheap {
		t.Error("subheap md")
	}
	if p := m.IfpMdGlobal(0x1000, 9); tag.SchemeOf(p) != tag.SchemeGlobalTable {
		t.Error("global md")
	}
	if p := m.IfpMdStrip(tag.MakeGlobal(0x1000, 9)); !tag.IsLegacy(p) || tag.Addr(p) != 0x1000 {
		t.Error("strip")
	}
	if m.C.IfpMd != 4 {
		t.Errorf("IfpMd count = %d", m.C.IfpMd)
	}
}

func TestBoundsSpillRoundTrip(t *testing.T) {
	m := New()
	b := BoundsReg{B: layout.Bounds{Lower: 0x1234, Upper: 0x5678}, Valid: true}
	if err := m.StBnd(0x9000, b); err != nil {
		t.Fatal(err)
	}
	got, err := m.LdBnd(0x9000)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("round trip = %+v, want %+v", got, b)
	}
	// Cleared bounds round-trip as cleared.
	if err := m.StBnd(0x9010, Cleared); err != nil {
		t.Fatal(err)
	}
	got, err = m.LdBnd(0x9010)
	if err != nil || got.Valid {
		t.Errorf("cleared round trip = %+v (err %v)", got, err)
	}
	if m.C.LdBnd != 2 || m.C.StBnd != 2 {
		t.Errorf("bounds mem counters = %+v", m.C)
	}
}

func TestLoadStoreCheckedPath(t *testing.T) {
	m := New()
	b := m.IfpBnd(0x4000, 16)
	p := tag.MakeGlobal(0x4000, 1)
	if err := m.Store(p, 0xAB, 1, b); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(p, 1, b)
	if err != nil || v != 0xAB {
		t.Errorf("load = %#x (err %v)", v, err)
	}
	// Implicit check catches an out-of-bounds store.
	q := tag.MakeGlobal(0x4010, 1)
	if err := m.Store(q, 1, 1, b); !IsTrap(err, TrapBounds) {
		t.Errorf("err = %v, want bounds trap", err)
	}
	// Straddling access: last byte out.
	r := tag.MakeGlobal(0x400c, 1)
	if _, err := m.Load(r, 8, b); !IsTrap(err, TrapBounds) {
		t.Errorf("straddle err = %v, want bounds trap", err)
	}
}

func TestLoadStorePoisonTrap(t *testing.T) {
	m := New()
	p := tag.WithPoison(tag.MakeGlobal(0x4000, 1), tag.OOB)
	if _, err := m.Load(p, 1, Cleared); !IsTrap(err, TrapPoison) {
		t.Errorf("load err = %v", err)
	}
	if err := m.Store(p, 1, 1, Cleared); !IsTrap(err, TrapPoison) {
		t.Errorf("store err = %v", err)
	}
	if m.C.PoisonTraps != 2 {
		t.Errorf("PoisonTraps = %d", m.C.PoisonTraps)
	}
}

func TestLegacyLoadStoreUnchecked(t *testing.T) {
	// Legacy pointers with cleared bounds dereference freely (partial
	// protection only — this is the compatibility story).
	m := New()
	if err := m.Store(0x6000, 7, 8, Cleared); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(0x6000, 8, Cleared)
	if err != nil || v != 7 {
		t.Errorf("legacy round trip = %d (err %v)", v, err)
	}
	if m.C.Checks != 0 {
		t.Error("legacy access was checked")
	}
}

func TestCycleAccounting(t *testing.T) {
	m := New()
	c0 := m.C.Cycles
	m.Tick(10)
	if m.C.Cycles-c0 != 10 || m.C.Instrs != 10 {
		t.Errorf("tick accounting: %+v", m.C)
	}
	// A cold load pays the miss penalty; a warm one does not.
	if _, err := m.Load(0x7000, 8, Cleared); err != nil {
		t.Fatal(err)
	}
	cold := m.C.Cycles
	if _, err := m.Load(0x7000, 8, Cleared); err != nil {
		t.Fatal(err)
	}
	warm := m.C.Cycles - cold
	if warm != 1 { // pipelined single-cycle hit
		t.Errorf("warm load = %d cycles, want 1", warm)
	}
	coldCost := cold - c0 - 10
	if coldCost != 1+m.Cost.MissPenalty {
		t.Errorf("cold load = %d cycles, want %d", coldCost, 1+m.Cost.MissPenalty)
	}
}

func TestRawAccessors(t *testing.T) {
	m := New()
	if err := m.RawStore64(0x8000, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.RawLoad64(0x8000)
	if err != nil || v != 42 {
		t.Errorf("raw = %d (err %v)", v, err)
	}
}

func TestCounterClasses(t *testing.T) {
	m := New()
	m.IfpAdd(0, 0, Cleared)
	m.IfpIdx(0, 0)
	m.IfpBnd(0, 8)
	m.IfpChk(0, 1, Cleared)
	m.IfpMac(0, 0, 0)
	m.IfpMdStrip(0)
	m.IfpExtract(0, Cleared)
	if m.C.IfpArith() != 7 {
		t.Errorf("IfpArith = %d, want 7", m.C.IfpArith())
	}
	_ = m.StBnd(0x100, Cleared)
	_, _ = m.LdBnd(0x100)
	if m.C.IfpBoundsMem() != 2 {
		t.Errorf("IfpBoundsMem = %d", m.C.IfpBoundsMem())
	}
	m.Promote(0)
	if m.C.IfpTotal() != 10 {
		t.Errorf("IfpTotal = %d, want 10", m.C.IfpTotal())
	}
}

func TestTrapFormatting(t *testing.T) {
	for _, k := range []TrapKind{TrapPoison, TrapBounds, TrapMetadata, TrapMemory, TrapKind(9)} {
		tr := &Trap{Kind: k, Ptr: 0x1000, Size: 8, Msg: "x"}
		if tr.Error() == "" || k.String() == "" {
			t.Error("empty trap string")
		}
	}
	if IsTrap(nil, TrapPoison) {
		t.Error("nil is a trap")
	}
}

func BenchmarkPromoteLocalHit(b *testing.B) {
	m := New()
	s := layout.StructOf("S", layout.F("a", layout.Int), layout.F("b", layout.Int))
	p := setupLocalBench(m, 0x1000, s.Size(), s)
	m.Promote(p) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Promote(p)
	}
}

func BenchmarkPromoteBypassLegacy(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Promote(0x5000)
	}
}

// BenchmarkPromoteWorkingSet promotes in a cycle over n wrapped objects,
// each a 32-byte local-offset object followed by its record as the wrapped
// allocator lays them out. Once n outgrows the MAC memo, most promotes
// take the memo's miss path and compute the MAC.
func BenchmarkPromoteWorkingSet(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := New()
			ps := make([]uint64, n)
			base := uint64(0x10_0000)
			for i := range ps {
				ps[i] = setupLocalBench(m, base, 32, nil)
				_, footprint := metadata.LocalPlacement(base, 32)
				base += footprint
			}
			for _, p := range ps {
				m.Promote(p) // map the pages, warm the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Promote(ps[i&(n-1)])
			}
		})
	}
}

// setupLocalBench is setupLocal without the testing.T plumbing.
func setupLocalBench(m *Machine, base, size uint64, typ *layout.Type) uint64 {
	var layoutPtr uint64
	if typ != nil {
		tb, err := layout.Build(typ)
		if err != nil {
			panic(err)
		}
		layoutPtr = 0x70_0000
		for i, w := range tb.Encode() {
			if err := m.Mem.Store64(layoutPtr+uint64(i)*8, w); err != nil {
				panic(err)
			}
		}
	}
	metaAddr, _ := metadata.LocalPlacement(base, size)
	md := metadata.Local{Size: uint16(size), LayoutPtr: layoutPtr}
	md.MAC = metadata.LocalMAC(m.Key, base, md.Size, md.LayoutPtr)
	w := md.Encode()
	if err := m.Mem.Store64(metaAddr, w[0]); err != nil {
		panic(err)
	}
	if err := m.Mem.Store64(metaAddr+8, w[1]); err != nil {
		panic(err)
	}
	off, _ := metadata.LocalGranuleOffset(base, metaAddr)
	return tag.MakeLocal(base, off, 0)
}

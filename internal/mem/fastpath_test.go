package mem

import (
	"encoding/binary"
	"errors"
	"testing"
)

// refLoadN is the pre-fast-path LoadN: always bounce through Read.
func refLoadN(m *Memory, addr uint64, size int) (uint64, error) {
	var buf [8]byte
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return 0, &Fault{Addr: addr, Size: size, Why: "unsupported access size"}
	}
	if err := m.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]) & (^uint64(0) >> (64 - 8*uint(size))), nil
}

// refStoreN is the pre-fast-path StoreN: always bounce through Write.
func refStoreN(m *Memory, addr uint64, v uint64, size int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return &Fault{Addr: addr, Size: size, Write: true, Why: "unsupported access size"}
	}
	return m.Write(addr, buf[:size])
}

// sameFault asserts two access outcomes agree: both nil, or both Faults
// with identical fields.
func sameFault(t *testing.T, ctx string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: err = %v, ref %v", ctx, got, want)
	}
	if got == nil {
		return
	}
	var gf, wf *Fault
	if !errors.As(got, &gf) || !errors.As(want, &wf) {
		t.Fatalf("%s: non-Fault errors %v / %v", ctx, got, want)
	}
	if *gf != *wf {
		t.Fatalf("%s: fault = %+v, ref %+v", ctx, *gf, *wf)
	}
}

// diffOp drives one store+load through the fast-path memory and the
// reference (slow-path-only) memory and asserts values, faults, and
// mapping accounting agree.
func diffOp(t *testing.T, fast, ref *Memory, addr uint64, v uint64, size int) {
	t.Helper()
	sameFault(t, "store", fast.StoreN(addr, v, size), refStoreN(ref, addr, v, size))
	gv, gerr := fast.LoadN(addr, size)
	wv, werr := refLoadN(ref, addr, size)
	sameFault(t, "load", gerr, werr)
	if gv != wv {
		t.Fatalf("LoadN(%#x, %d) = %#x, ref %#x", addr, size, gv, wv)
	}
	if fast.MappedBytes() != ref.MappedBytes() {
		t.Fatalf("after access at %#x: MappedBytes = %d, ref %d",
			addr, fast.MappedBytes(), ref.MappedBytes())
	}
}

// helperHits counts the hits diffHelpers saw, so a test can show its
// helper checks were not all misses.
type helperHits struct{ load, store, words int }

// diffHelpers pins the hit-only helpers to the full paths at addr: each
// of TryLoad64, TryStore64 and TryLoadWords (1 to 4 words) either hits
// with exactly what LoadN reads (or StoreN writes) on the reference
// memory, or misses with no effect — the contents, MappedBytes and the
// next LoadN stay what the reference has. The reference never runs a
// helper, so any stray effect on fast shows as a divergence.
func diffHelpers(t *testing.T, fast, ref *Memory, addr, v uint64, hits *helperHits) {
	t.Helper()
	// sync re-reads each word through LoadN on both memories (mapping the
	// same pages on both) and asserts they agree.
	sync := func(ctx string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			a := addr + uint64(i)*8
			gv, gerr := fast.LoadN(a, 8)
			wv, werr := refLoadN(ref, a, 8)
			sameFault(t, ctx, gerr, werr)
			if gv != wv {
				t.Fatalf("%s: LoadN(%#x) = %#x, ref %#x", ctx, a, gv, wv)
			}
		}
		if fast.MappedBytes() != ref.MappedBytes() {
			t.Fatalf("%s at %#x: MappedBytes = %d, ref %d", ctx, addr, fast.MappedBytes(), ref.MappedBytes())
		}
	}
	before := fast.MappedBytes()
	if got, ok := fast.TryLoad64(addr); ok {
		hits.load++
		want, err := refLoadN(ref, addr, 8)
		if err != nil || got != want {
			t.Fatalf("TryLoad64(%#x) hit with %#x, LoadN = (%#x, %v)", addr, got, want, err)
		}
	}
	if fast.MappedBytes() != before {
		t.Fatalf("TryLoad64(%#x) mapped pages", addr)
	}
	sync("after TryLoad64", 1)

	before = fast.MappedBytes()
	if fast.TryStore64(addr, v) {
		hits.store++
		if err := refStoreN(ref, addr, v, 8); err != nil {
			t.Fatalf("TryStore64(%#x) hit where StoreN faults: %v", addr, err)
		}
	}
	if fast.MappedBytes() != before {
		t.Fatalf("TryStore64(%#x) mapped pages", addr)
	}
	sync("after TryStore64", 1)

	for n := 1; n <= 4; n++ {
		const poison = 0x5EED5EED5EED5EED
		w := []uint64{poison, poison, poison, poison}[:n]
		before = fast.MappedBytes()
		if fast.TryLoadWords(addr, w) {
			hits.words++
			for i := range w {
				want, err := refLoadN(ref, addr+uint64(i)*8, 8)
				if err != nil || w[i] != want {
					t.Fatalf("TryLoadWords(%#x, %d)[%d] = %#x, LoadN = (%#x, %v)", addr, n, i, w[i], want, err)
				}
			}
		} else {
			for i := range w {
				if w[i] != poison {
					t.Fatalf("missed TryLoadWords(%#x, %d) wrote word %d", addr, n, i)
				}
			}
		}
		if fast.MappedBytes() != before {
			t.Fatalf("TryLoadWords(%#x, %d) mapped pages", addr, n)
		}
	}
	sync("after TryLoadWords", 4)
}

// TestMemFastPathDifferential pins the LoadN/StoreN fast paths to the
// Read/Write slow path on the boundary shapes that select between them:
// aligned and unaligned in-page accesses, accesses ending exactly at a
// page boundary, page-straddling accesses, and wrap-adjacent addresses at
// the top of the 64-bit space (where the fast path must reproduce the
// slow path's wrap fault byte for byte). After every access the hit-only
// helpers are checked against the full paths at the same address.
func TestMemFastPathDifferential(t *testing.T) {
	fast, ref := New(), New()
	const top = ^uint64(0)
	slot := sameSlotPages(0x20, 3) // three pages sharing one TLB slot
	addrs := []uint64{
		0, 1, 7, 8, 15, // low page, aligned + unaligned
		PageSize - 8, PageSize - 7, PageSize - 4, // end exactly at boundary
		PageSize - 1, PageSize - 3, // straddle into page 1
		PageSize, PageSize + 1, // second page
		5*PageSize - 2, 5 * PageSize, // straddle + fresh page
		slot[0] << PageBits, slot[1]<<PageBits + 8, // evicts slot[0]
		slot[0]<<PageBits + 16, slot[2]<<PageBits + PageSize - 8, // and back
		slot[1]<<PageBits + 24,
		top - 15, top - 8, top - 7, // highest page, in-bounds
		top - 6, top - 3, top - 1, top, // wrap-adjacent
	}
	v := uint64(0x0123456789ABCDEF)
	var hits helperHits
	for _, addr := range addrs {
		for _, size := range []int{1, 2, 4, 8} {
			diffOp(t, fast, ref, addr, v, size)
			v = v*0x9E3779B97F4A7C15 + 1
			diffHelpers(t, fast, ref, addr, v, &hits)
			v = v*0x9E3779B97F4A7C15 + 1
		}
	}
	if hits.load == 0 || hits.store == 0 || hits.words == 0 {
		t.Fatalf("helpers never hit (%+v): the differential checked misses only", hits)
	}
	// The top page: the loop mapped it, and touching the word at top-15
	// last leaves it as resident as it can be. The word at top-7 ends
	// exactly at 2^64, so LoadN faults on it whatever the TLB holds, and
	// every helper must miss there rather than read or write the word.
	if _, err := fast.LoadN(top-15, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.LoadN(top-7, 8); err == nil {
		t.Fatal("LoadN at 2^64-8 did not fault")
	}
	if _, ok := fast.TryLoad64(top - 7); ok {
		t.Fatal("TryLoad64 hit on a word that wraps")
	}
	if fast.TryStore64(top-7, 1) {
		t.Fatal("TryStore64 hit on a word that wraps")
	}
	if fast.TryLoadWords(top-15, make([]uint64, 2)) {
		t.Fatal("TryLoadWords hit on a record that wraps")
	}
	// Unsupported sizes fault identically on both paths.
	for _, size := range []int{0, 3, 5, 16, -1} {
		_, gerr := fast.LoadN(64, size)
		_, werr := refLoadN(ref, 64, size)
		sameFault(t, "load badsize", gerr, werr)
		sameFault(t, "store badsize", fast.StoreN(64, 9, size), refStoreN(ref, 64, 9, size))
	}
	// Footprints built through different paths must be the same pages.
	gs, ws := fast.Snapshot(), ref.Snapshot()
	if len(gs) != len(ws) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("snapshot[%d] = %#x, ref %#x", i, gs[i], ws[i])
		}
	}
}

// TestTLBInvalidatedOnReset guards the TLB invalidation rule: a Reset
// recycles page frames, so a stale translation surviving it would alias a
// dead run's data into a fresh one.
func TestTLBInvalidatedOnReset(t *testing.T) {
	m := New()
	if err := m.StoreN(0x1000, 0xDEAD, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreN(0x2000, 0xBEEF, 8); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if got := m.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes after Reset = %d, want 0", got)
	}
	// Both previously-hot (TLB-resident) addresses must read zero from
	// freshly demand-mapped pages, not stale frames.
	for _, addr := range []uint64{0x1000, 0x2000} {
		v, err := m.LoadN(addr, 8)
		if err != nil || v != 0 {
			t.Fatalf("LoadN(%#x) after Reset = (%#x, %v), want (0, nil)", addr, v, err)
		}
	}
	if got := m.MappedBytes(); got != 2*PageSize {
		t.Fatalf("MappedBytes after remap = %d, want %d", got, 2*PageSize)
	}
}

// sameSlotPages returns n page numbers from start up that all map to
// start's TLB slot.
func sameSlotPages(start uint64, n int) []uint64 {
	pns := []uint64{start}
	for pn := start + 1; len(pns) < n; pn++ {
		if tlbSlot(pn) == tlbSlot(start) {
			pns = append(pns, pn)
		}
	}
	return pns
}

// resident reports whether page pn's translation is in the TLB.
func (m *Memory) resident(pn uint64) bool { return m.tlb[tlbSlot(pn)].pn == pn }

// TestTLBAlternatingPages exercises TLB conflict pressure: the three pages
// used here share one slot of the direct-mapped TLB, so they keep evicting
// each other. Every access must stay coherent (still reaching the frame
// the pages map holds) across the constant mutual eviction.
func TestTLBAlternatingPages(t *testing.T) {
	m := New()
	pns := sameSlotPages(0x10, 3)
	a, b, c := pns[0]<<PageBits, pns[1]<<PageBits, pns[2]<<PageBits
	if err := m.StoreN(a, 1, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreN(b, 1, 8); err != nil {
		t.Fatal(err)
	}
	if m.resident(pns[0]) || !m.resident(pns[1]) {
		t.Fatalf("pages %#x and %#x do not contend for one TLB slot", pns[0], pns[1])
	}
	for i := uint64(0); i < 64; i++ {
		if err := m.StoreN(a+8*i, 0xA0+i, 8); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreN(b+8*i, 0xB0+i, 8); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 { // periodic eviction pressure from a third page
			if err := m.StoreN(c+8*i, 0xC0+i, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := uint64(0); i < 64; i++ {
		if v, _ := m.LoadN(a+8*i, 8); v != 0xA0+i {
			t.Fatalf("a[%d] = %#x, want %#x", i, v, 0xA0+i)
		}
		if v, _ := m.LoadN(b+8*i, 8); v != 0xB0+i {
			t.Fatalf("b[%d] = %#x, want %#x", i, v, 0xB0+i)
		}
	}
	// The TLB is a cache over pages, never a source of truth: its frames
	// must be exactly what the map holds.
	for i := 0; i < tlbSize; i++ {
		if e := m.tlb[i]; e.pn != noPage && e.pg != m.pages[e.pn] {
			t.Fatalf("tlb entry %d frame diverges from pages map", i)
		}
	}
}

// TestTLBRegionResidency pins what the TLB's size and slot function are
// for: the first page of every region of internal/rt's address map and a
// 164-page span of either heap (the largest report cells below
// perimeter's memory cells touch 164 pages) are all resident at once.
func TestTLBRegionResidency(t *testing.T) {
	// Region bases of internal/rt, as page numbers: global table,
	// layout tables, globals, stack, free-list heap, subheap.
	regions := []uint64{0x10, 0x100, 0x1000, 0x3000, 0x1_0000, 0x4_0000}
	for _, heap := range regions[4:] {
		m := New()
		touched := append([]uint64(nil), regions...)
		for pn := heap + 1; pn < heap+164; pn++ {
			touched = append(touched, pn)
		}
		for _, pn := range touched {
			if err := m.StoreN(pn<<PageBits, pn, 8); err != nil {
				t.Fatal(err)
			}
		}
		for _, pn := range touched {
			if !m.resident(pn) {
				t.Errorf("heap span at page %#x: page %#x evicted (slot %d)", heap, pn, tlbSlot(pn))
			}
		}
	}
}

// TestTryLoadWordsMatchesLoad64: a record within one TLB-resident page
// reads inline exactly what per-word Load64 calls read; a record that
// crosses a page, wraps the address space, or lies in a page the TLB does
// not hold (unmapped, or evicted by a page sharing its slot) reads
// nothing and maps nothing, and the per-word fallback then reads it.
func TestTryLoadWordsMatchesLoad64(t *testing.T) {
	evicted := sameSlotPages(0x9, 2)
	cases := []struct {
		addr uint64
		n    int
		ok   bool
	}{
		{0x5000, 4, true},
		{0x5FE0, 4, true},           // ends exactly at the page end
		{0x5FE8, 4, false},          // last word crosses into the next page
		{0x5003, 2, true},           // unaligned, within the page
		{^uint64(0) - 15, 2, false}, // ends exactly at 2^64: wraps
		{0x7000, 0, true},
		{0x40_0000, 2, false},                 // never mapped
		{evicted[0]<<PageBits + 64, 2, false}, // mapped, then evicted
	}
	for _, tc := range cases {
		m, ref := New(), New()
		for i := uint64(0); i < 64; i++ {
			addr := tc.addr&^pageMask - 8*32 + 8*i
			if tc.addr == 0x40_0000 {
				addr = 0x3F_0000 + 8*i
			}
			if err := m.StoreN(addr, 0x1111*i, 8); err == nil {
				_ = ref.StoreN(addr, 0x1111*i, 8)
			}
		}
		if tc.addr>>PageBits == evicted[0] {
			_ = m.StoreN(evicted[1]<<PageBits, 1, 8)
			_ = ref.StoreN(evicted[1]<<PageBits, 1, 8)
		}
		before := m.MappedBytes()
		w := make([]uint64, tc.n)
		if got := m.TryLoadWords(tc.addr, w); got != tc.ok {
			t.Fatalf("TryLoadWords(%#x, %d) = %v, want %v", tc.addr, tc.n, got, tc.ok)
		}
		if m.MappedBytes() != before {
			t.Fatalf("TryLoadWords(%#x, %d) mapped pages", tc.addr, tc.n)
		}
		if !tc.ok {
			continue
		}
		for i := range w {
			want, err := ref.Load64(tc.addr + uint64(i)*8)
			if err != nil || w[i] != want {
				t.Fatalf("TryLoadWords(%#x)[%d] = %#x, Load64 = (%#x, %v)", tc.addr, i, w[i], want, err)
			}
		}
		if m.MappedBytes() != ref.MappedBytes() {
			t.Fatalf("TryLoadWords(%#x, %d): MappedBytes %d, per-word %d", tc.addr, tc.n, m.MappedBytes(), ref.MappedBytes())
		}
	}
}

// FuzzMemFastPath is the differential fuzz target: arbitrary (addr, value,
// size selector) triples must behave identically through the fast paths
// and the Read/Write slow path, including fault equality and footprint
// accounting.
func FuzzMemFastPath(f *testing.F) {
	f.Add(uint64(0), uint64(1), byte(3))
	f.Add(uint64(PageSize-1), uint64(0xFFFF), byte(1))
	f.Add(^uint64(0)-3, uint64(0x1234), byte(2))
	f.Add(^uint64(0), ^uint64(0), byte(0))
	f.Add(uint64(PageSize-4), uint64(0xDEADBEEF), byte(7)) // invalid size 16
	f.Add(^uint64(0)-7, uint64(0xFEED), byte(0x13))        // top page, helpers 8 bytes below
	f.Add(uint64(PageSize-16), uint64(0xF00D), byte(0x23)) // record ending at the page end
	f.Fuzz(func(t *testing.T, addr, v uint64, sizeSel byte) {
		size := 1 << (sizeSel & 7) // 1..128: sizes past 8 probe the shared fault
		fast, ref := New(), New()
		sameFault(t, "store", fast.StoreN(addr, v, size), refStoreN(ref, addr, v, size))
		gv, gerr := fast.LoadN(addr, size)
		wv, werr := refLoadN(ref, addr, size)
		sameFault(t, "load", gerr, werr)
		if gv != wv {
			t.Fatalf("LoadN(%#x, %d) = %#x, ref %#x", addr, size, gv, wv)
		}
		// Re-load through Read as an independent check of stored bytes.
		if gerr == nil {
			var buf [8]byte
			if err := ref.Read(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
			want := binary.LittleEndian.Uint64(buf[:]) & (^uint64(0) >> (64 - 8*uint(size)))
			if gv != want {
				t.Fatalf("stored bytes differ: %#x vs %#x", gv, want)
			}
		}
		if fast.MappedBytes() != ref.MappedBytes() {
			t.Fatalf("MappedBytes = %d, ref %d", fast.MappedBytes(), ref.MappedBytes())
		}
		// The high bits of sizeSel pick where the hit-only helpers run:
		// at the access, or 8 to 24 bytes below it, so a word or record
		// can start in the page before the one the access made resident.
		var hits helperHits
		diffHelpers(t, fast, ref, addr-8*uint64(sizeSel>>4&3), v^0xA5A5, &hits)
	})
}

// TestAllocBudgetMemLoadStore is the CI alloc-regression guard for the
// memory fast paths: once a working set is mapped, a load/store loop must
// not allocate at all — the TLB hit path touches no map and no buffer.
func TestAllocBudgetMemLoadStore(t *testing.T) {
	m := New()
	const span = 4 * PageSize
	m.Map(0, span)
	allocs := testing.AllocsPerRun(100, func() {
		for addr := uint64(0); addr < span; addr += 64 {
			if err := m.StoreN(addr, addr^0x5A5A, 8); err != nil {
				t.Fatal(err)
			}
			if _, err := m.LoadN(addr, 8); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("load/store loop allocates %.1f/run, want 0", allocs)
	}
}

// BenchmarkMemLoadStore measures the aligned single-page fast path (the
// shape nearly every simulated guest access has) against the straddling
// slow path, on a warm working set.
func BenchmarkMemLoadStore(b *testing.B) {
	m := New()
	const span = 16 * PageSize
	m.Map(0, span)
	b.Run("aligned8", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i) * 8 % span
			_ = m.StoreN(addr, uint64(i), 8)
			v, _ := m.LoadN(addr, 8)
			sink += v
		}
		_ = sink
	})
	b.Run("unaligned4", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := (uint64(i)*4 + 1) % span
			_ = m.StoreN(addr, uint64(i), 4)
			v, _ := m.LoadN(addr, 4)
			sink += v
		}
		_ = sink
	})
	b.Run("straddle8", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i)%14*PageSize + PageSize - 3
			_ = m.StoreN(addr, uint64(i), 8)
			v, _ := m.LoadN(addr, 8)
			sink += v
		}
		_ = sink
	})
}

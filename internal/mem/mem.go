// Package mem models the guest physical memory of the simulated machine: a
// sparse, paged, little-endian 64-bit address space. Loads and stores use
// 48-bit addresses (the tag bits of In-Fat pointers are stripped before the
// memory system sees an address). Accesses to unmapped pages fault, which
// the machine surfaces exactly like the paper's promote-generated page
// faults (§3.2: "any generated exception ... is reported as generated from
// the promote instruction").
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is log2 of the page size.
const PageBits = 12

// PageSize is the page size in bytes (4 KiB, matching the RISC-V Sv39 base
// page the paper's Linux port uses).
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// Fault describes a memory access error.
type Fault struct {
	Addr  uint64 // faulting guest address
	Size  int    // access size in bytes
	Write bool   // true for stores
	Why   string // human-readable cause
}

func (f *Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("mem: %s fault at %#x (size %d): %s", kind, f.Addr, f.Size, f.Why)
}

// tlbSize is the number of software-TLB entries. Direct mapping keeps the
// hit path free of pointer writes — an MRU scheme's swap-to-front stores
// pointers on every reordering, and each such store pays a GC write
// barrier — so the size and the slot function (tlbSlot) are what keep a
// cell's working set resident. With 512 entries every report-grid cell
// up to the health and ft wrapped memory cells (163 and 164 pages) maps
// without a conflict; only perimeter's memory cells (430-714 pages) and
// bzip2's subheap cells, whose pools sit 256 pages apart, share slots.
const tlbSize = 512

// tlbSlot is page pn's TLB slot. The runtime's regions all start at
// multiples of 256 pages (internal/rt: global table 0x10, layout tables
// 0x100, globals 0x1000, stack 0x3000, free-list heap 0x10000, subheap
// 0x40000), so indexing on the low page-number bits alone put every
// region's first page in slot 0, where they evicted each other. Adding
// the page number's bits from 2^10 and 2^14 pages up back in gives each
// region its own starting slot (16, 256, 4, 12, 68 and 272), while a
// region's consecutive pages still take consecutive slots: each heap
// grows at least 188 pages before meeting another region's first slot.
func tlbSlot(pn uint64) uint64 { return (pn + pn>>10 + pn>>14) & (tlbSize - 1) }

// Memory is a sparse paged guest address space. It is not safe for
// concurrent use; the simulated core is single-issue in-order (CVA6), and
// the runtime serializes guest accesses.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// tlb is a direct-mapped software TLB: page number pn lives in slot
	// tlbSlot(pn). It is purely a host-side lookup shortcut: a hit
	// returns the same frame the pages map would, so guest-visible
	// behavior — contents, MappedBytes, fault points, and every modeled
	// counter (cycles and cache statistics are charged upstream in
	// internal/machine before memory is touched) — is identical with the
	// TLB disabled. Entries stay valid because a mapped page's frame never
	// changes until Reset, which invalidates the TLB wholesale. Each entry
	// pairs page number and frame in one struct so the hit path (probe) is
	// a single index expression. The top page of the address space is never
	// entered (pageSlow), so no access that hits can wrap past 2^64.
	tlb [tlbSize]tlbEntry

	// Mapped tracks the total number of mapped pages, for the memory
	// overhead accounting of Figure 12.
	mapped int

	// spare holds zeroed page frames retained by Reset so a reused
	// address space demand-maps without fresh host allocations. Frames in
	// spare are always fully zeroed, which is what keeps a reused page
	// indistinguishable from a freshly allocated one.
	spare []*[PageSize]byte
}

// tlbEntry is one software-TLB slot: a page number and its frame. Empty
// slots hold pn == noPage, a page number no address can produce (page
// numbers are addr>>PageBits, so they fit in 64-PageBits bits), which
// keeps the hit test to a single compare with no separate nil check.
type tlbEntry struct {
	pn uint64
	pg *[PageSize]byte
}

// noPage is the empty-slot sentinel page number.
const noPage = ^uint64(0)

// topPage is the last page of the address space, the only one holding
// addresses whose accesses can wrap. pageSlow maps it but never enters it
// in the TLB, so the hit-only helpers (TryLoad64, TryStore64,
// TryLoadWords) need no wrap test of their own: a hit proves the page is
// not topPage, and an access inside such a page ends at or below
// 2^64-PageSize.
const topPage = ^uint64(0) >> PageBits

// invalidateTLB empties every slot.
func (m *Memory) invalidateTLB() {
	for i := range m.tlb {
		m.tlb[i] = tlbEntry{pn: noPage}
	}
}

// maxSparePages bounds the page frames Reset retains (64 MiB of host
// memory per address space); anything beyond is dropped to the GC so a
// single huge run cannot pin its peak footprint inside a pooled system
// forever.
const maxSparePages = 16384

// New returns an empty address space.
func New() *Memory {
	m := &Memory{pages: make(map[uint64]*[PageSize]byte)}
	m.invalidateTLB()
	return m
}

// MappedBytes reports the number of bytes of guest memory currently backed
// by pages. This is the simulator's analogue of maximum resident set size
// growth (pages are never unmapped during a run, so the high-water mark
// equals the current value; Reset starts a new run at zero).
func (m *Memory) MappedBytes() uint64 { return uint64(m.mapped) * PageSize }

// Reset unmaps every page, returning the address space to its New-time
// state (MappedBytes == 0, all memory reads as zero) while retaining up
// to maxSparePages zeroed page frames for reuse. A reused Memory is
// observationally identical to a fresh one: the only difference is that
// demand-mapping pops a retained frame instead of allocating. Reset also
// invalidates the TLB — retained frames may back different page numbers
// in the next run, so no stale translation can survive it.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		if len(m.spare) >= maxSparePages {
			break
		}
		*p = [PageSize]byte{}
		m.spare = append(m.spare, p)
	}
	clear(m.pages)
	m.invalidateTLB()
	m.mapped = 0
}

// probe is the TLB hit path: page pn's frame if its slot holds it, else
// nil. A hit performs no writes at all. It inlines into the full paths
// (page, LoadN, StoreN), which are calls themselves; the machine reaches a
// resident word without any call through the hit-only helpers
// (TryLoad64, TryStore64, TryLoadWords), which repeat its slot test.
func (m *Memory) probe(pn uint64) *[PageSize]byte {
	if e := &m.tlb[tlbSlot(pn)]; e.pn == pn {
		return e.pg
	}
	return nil
}

// page translates a page number to its frame, demand-mapping on first
// touch: a TLB probe, then on a miss the pages map (or demand-map) and a
// refill of the slot.
func (m *Memory) page(pn uint64) *[PageSize]byte {
	if p := m.probe(pn); p != nil {
		return p
	}
	return m.pageSlow(pn)
}

// pageSlow is the TLB-miss path: pages-map lookup, demand-map, TLB refill
// (of every page but topPage). Kept out of line so the translation sites
// stay small.
//
//go:noinline
func (m *Memory) pageSlow(pn uint64) *[PageSize]byte {
	p, ok := m.pages[pn]
	if !ok {
		if n := len(m.spare); n > 0 {
			p = m.spare[n-1]
			m.spare[n-1] = nil
			m.spare = m.spare[:n-1]
		} else {
			p = new([PageSize]byte)
		}
		m.pages[pn] = p
		m.mapped++
	}
	if pn != topPage {
		m.tlb[tlbSlot(pn)] = tlbEntry{pn: pn, pg: p}
	}
	return p
}

// Read copies size bytes at addr into buf, demand-mapping pages. It returns
// a Fault only for address wrap-around; the simulated environment runs with
// overcommit so unmapped pages are backed on first touch.
func (m *Memory) Read(addr uint64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if addr+uint64(len(buf)) < addr {
		return &Fault{Addr: addr, Size: len(buf), Why: "address wrap"}
	}
	for done := 0; done < len(buf); {
		p := m.page((addr + uint64(done)) >> PageBits)
		off := int((addr + uint64(done)) & pageMask)
		n := copy(buf[done:], p[off:])
		done += n
	}
	return nil
}

// Write copies buf to addr, demand-mapping pages.
func (m *Memory) Write(addr uint64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if addr+uint64(len(buf)) < addr {
		return &Fault{Addr: addr, Size: len(buf), Write: true, Why: "address wrap"}
	}
	for done := 0; done < len(buf); {
		p := m.page((addr + uint64(done)) >> PageBits)
		off := int((addr + uint64(done)) & pageMask)
		n := copy(p[off:], buf[done:])
		done += n
	}
	return nil
}

// LoadN loads a size-byte little-endian unsigned integer (size in
// {1,2,4,8}). It is the full path behind TryLoad64: every size, TLB
// misses, demand-mapping and faults. Accesses contained in one page decode
// little-endian directly from the page frame; a page-straddling access
// takes the Read slow path through an 8-byte bounce buffer. Both paths
// apply the same wrap fault rule, so they are observationally identical
// (the contract TestMemFastPathDifferential and FuzzMemFastPath pin
// down).
func (m *Memory) LoadN(addr uint64, size int) (uint64, error) {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return 0, &Fault{Addr: addr, Size: size, Why: "unsupported access size"}
	}
	if off := addr & pageMask; off+uint64(size) <= PageSize {
		if addr+uint64(size) < addr {
			return 0, &Fault{Addr: addr, Size: size, Why: "address wrap"}
		}
		p := m.probe(addr >> PageBits)
		if p == nil {
			p = m.pageSlow(addr >> PageBits)
		}
		switch size {
		case 1:
			return uint64(p[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		}
		return binary.LittleEndian.Uint64(p[off:]), nil
	}
	var buf [8]byte
	if err := m.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]) & (^uint64(0) >> (64 - 8*uint(size))), nil
}

// StoreN stores the low size bytes of v little-endian (size in {1,2,4,8}),
// with the same single-page fast path / straddling slow path split as
// LoadN. It is the full path behind TryStore64.
func (m *Memory) StoreN(addr uint64, v uint64, size int) error {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return &Fault{Addr: addr, Size: size, Write: true, Why: "unsupported access size"}
	}
	if off := addr & pageMask; off+uint64(size) <= PageSize {
		if addr+uint64(size) < addr {
			return &Fault{Addr: addr, Size: size, Write: true, Why: "address wrap"}
		}
		p := m.probe(addr >> PageBits)
		if p == nil {
			p = m.pageSlow(addr >> PageBits)
		}
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(p[off:], v)
		}
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.Write(addr, buf[:size])
}

// TryLoad64 is the TLB-hit half of Load64: when the word at addr lies in
// one TLB-resident page it returns the word and true, with no other
// effect. Otherwise it returns false with no effect at all, and the caller
// takes Load64, which maps the page, refills the TLB or faults. A hit
// returns exactly what Load64 would: the frame is the one the pages map
// holds, and the word cannot wrap (topPage is never resident).
//
// The hit-only helpers test the TLB slot themselves rather than through
// probe, whose nil test would push TryLoadWords past the inlining budget;
// all three must inline into the machine to be worth having.
func (m *Memory) TryLoad64(addr uint64) (uint64, bool) {
	pn, off := addr>>PageBits, addr&pageMask
	if e := &m.tlb[tlbSlot(pn)]; e.pn == pn && off <= PageSize-8 {
		return binary.LittleEndian.Uint64(e.pg[off:]), true
	}
	return 0, false
}

// TryStore64 is the TLB-hit half of Store64, with TryLoad64's contract: it
// stores v and reports true only when the word lies in one TLB-resident
// page, and otherwise writes nothing.
func (m *Memory) TryStore64(addr, v uint64) bool {
	pn, off := addr>>PageBits, addr&pageMask
	if e := &m.tlb[tlbSlot(pn)]; e.pn == pn && off <= PageSize-8 {
		binary.LittleEndian.PutUint64(e.pg[off:], v)
		return true
	}
	return false
}

// TryLoadWords reads a record: it fills w with the consecutive little-
// endian words at addr and reports true when they all lie in one
// TLB-resident page. Otherwise it reads nothing and returns false, and the
// caller loads the words one by one through Load64, which keeps its
// per-word mapping and fault order.
func (m *Memory) TryLoadWords(addr uint64, w []uint64) bool {
	pn, off := addr>>PageBits, addr&pageMask
	e := &m.tlb[tlbSlot(pn)]
	if e.pn != pn || off+uint64(len(w))*8 > PageSize {
		return false
	}
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(e.pg[off:])
		off += 8
	}
	return true
}

// Load64 loads a 64-bit little-endian word.
func (m *Memory) Load64(addr uint64) (uint64, error) { return m.LoadN(addr, 8) }

// Store64 stores a 64-bit little-endian word.
func (m *Memory) Store64(addr uint64, v uint64) error { return m.StoreN(addr, v, 8) }

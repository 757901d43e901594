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
	"slices"
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
	// a single index expression that inlines into LoadN/StoreN.
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

// Map ensures the pages covering [addr, addr+size) are present. The runtime
// uses it to model brk/mmap; ordinary loads and stores also demand-map, as
// the paper's environment runs with overcommit enabled.
func (m *Memory) Map(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> PageBits
	last := (addr + size - 1) >> PageBits
	for pn := first; pn <= last; pn++ {
		m.page(pn)
	}
}

// probe is the TLB hit path: page pn's frame if its slot holds it, else
// nil. A hit performs no writes at all. It is small enough to inline at
// every translation site, so the common aligned access resolves its frame
// without a function call.
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

// pageSlow is the TLB-miss path: pages-map lookup, demand-map, TLB refill.
// Kept out of line so the translation sites stay small.
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
	m.tlb[tlbSlot(pn)] = tlbEntry{pn: pn, pg: p}
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
// {1,2,4,8}). Accesses contained in one page decode little-endian directly
// from the page frame; a page-straddling access takes the Read slow path
// through an 8-byte bounce buffer. Both paths apply the same wrap fault
// rule, so they are observationally identical (the contract
// TestMemFastPathDifferential and FuzzMemFastPath pin down).
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
// LoadN.
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

// LoadWords fills w with the consecutive little-endian words at addr
// through one translation when they all lie in one page, and reports
// whether it did. A run that crosses a page boundary or wraps the address
// space reads nothing and returns false, so the caller can fall back to
// per-word loads and their per-word fault order.
func (m *Memory) LoadWords(addr uint64, w []uint64) bool {
	if len(w) == 0 {
		return true
	}
	n := uint64(len(w)) * 8
	off := addr & pageMask
	if off+n > PageSize || addr+n < addr {
		return false
	}
	p := m.probe(addr >> PageBits)
	if p == nil {
		p = m.pageSlow(addr >> PageBits)
	}
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(p[off+uint64(i)*8:])
	}
	return true
}

// Load64 loads a 64-bit little-endian word.
func (m *Memory) Load64(addr uint64) (uint64, error) { return m.LoadN(addr, 8) }

// Store64 stores a 64-bit little-endian word.
func (m *Memory) Store64(addr uint64, v uint64) error { return m.StoreN(addr, v, 8) }

// Zero clears [addr, addr+size).
func (m *Memory) Zero(addr, size uint64) error {
	var zeros [256]byte
	for size > 0 {
		n := uint64(len(zeros))
		if size < n {
			n = size
		}
		if err := m.Write(addr, zeros[:n]); err != nil {
			return err
		}
		addr += n
		size -= n
	}
	return nil
}

// Snapshot returns the sorted list of mapped page numbers; tests use it to
// assert footprint shape.
func (m *Memory) Snapshot() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	return pns
}

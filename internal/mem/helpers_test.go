package mem

import "slices"

// Test-only views of the address space: Map pre-faults a range the way a
// load or store would, and Snapshot lists the mapped pages so tests can
// assert a footprint's shape.

// Map ensures the pages covering [addr, addr+size) are present.
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

// Snapshot returns the sorted list of mapped page numbers.
func (m *Memory) Snapshot() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	return pns
}

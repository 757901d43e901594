package heap

import (
	"fmt"

	"infat/internal/machine"
)

// FreeList is a glibc-flavoured malloc: 16-byte chunk headers written into
// guest memory ahead of each payload, segregated free bins per 16-byte
// size class for small chunks, and a first-fit list for large ones. It is
// the allocator the *wrapped* allocator builds on (§4.2.1: "a wrapped
// allocator on top of libc's malloc() and free()"), and also serves as the
// uninstrumented baseline allocator.
type FreeList struct {
	m *machine.Machine
	a *Arena

	bins      map[uint64][]uint64 // size class -> free payload addresses
	large     []chunk             // free large chunks, unsorted first-fit
	allocated map[uint64]uint64   // payload -> payload size

	live uint64 // live bytes including headers
}

type chunk struct {
	addr uint64 // payload address
	size uint64 // payload size
}

// HeaderBytes is the per-chunk bookkeeping overhead, matching glibc's
// two-word chunk header.
const HeaderBytes = 16

// largeClass is the boundary above which chunks go to the first-fit list.
const largeClass = 1024

// Allocator cost calibration, in dynamic instructions per call. The glibc
// path is several times the cost of the pool path (§5.2.2: "our subheap
// allocator implementation is more efficient in handling frequent dynamic
// allocations ... than the allocator from glibc").
const (
	freeListMallocCost = 90
	freeListFreeCost   = 45
	sbrkCost           = 30
)

// PoolAllocCost / PoolFreeCost are the subheap pool allocator's per-call
// costs (rt uses them): the pool path is a pop off a per-block free list,
// several times cheaper than the glibc-style path above, which is what
// makes perimeter and treeadd outperform baseline under the subheap
// allocator (§5.2.2).
const (
	PoolAllocCost = 60
	PoolFreeCost  = 35
)

// NewFreeList builds a free-list allocator over the arena.
func NewFreeList(m *machine.Machine, a *Arena) *FreeList {
	return &FreeList{
		m:         m,
		a:         a,
		bins:      make(map[uint64][]uint64),
		allocated: make(map[uint64]uint64),
	}
}

func sizeClass(n uint64) uint64 {
	if n < 16 {
		n = 16
	}
	return (n + 15) &^ 15
}

// Malloc allocates size bytes of payload, 16-byte aligned, and returns the
// payload address.
func (f *FreeList) Malloc(size uint64) (uint64, error) {
	f.m.Tick(freeListMallocCost)
	cls := sizeClass(size)

	var payload uint64
	switch {
	case cls <= largeClass && len(f.bins[cls]) > 0:
		bin := f.bins[cls]
		payload = bin[len(bin)-1]
		f.bins[cls] = bin[:len(bin)-1]
	case cls > largeClass:
		if i := f.findLarge(cls); i >= 0 {
			payload = f.large[i].addr
			// First-fit without splitting remainder back (fastbin-like);
			// the class is the stored size so there is no loss here.
			f.large = append(f.large[:i], f.large[i+1:]...)
		}
	}
	if payload == 0 {
		// Carve a fresh chunk: header + payload.
		f.m.Tick(sbrkCost)
		raw, err := f.a.Sbrk(HeaderBytes + cls)
		if err != nil {
			return 0, err
		}
		payload = raw + HeaderBytes
	}

	// Write the chunk header into guest memory (size | in-use bit), as
	// glibc does; this is what makes heap metadata visible to overflows.
	if err := f.m.RawStore64(payload-HeaderBytes, cls|1); err != nil {
		return 0, err
	}
	f.allocated[payload] = cls
	f.live += cls + HeaderBytes
	return payload, nil
}

func (f *FreeList) findLarge(cls uint64) int {
	for i, c := range f.large {
		if c.size == cls {
			return i
		}
	}
	return -1
}

// Free returns a payload to its bin.
func (f *FreeList) Free(addr uint64) error {
	f.m.Tick(freeListFreeCost)
	cls, ok := f.allocated[addr]
	if !ok {
		return fmt.Errorf("%w %#x", ErrBadFree, addr)
	}
	delete(f.allocated, addr)
	f.live -= cls + HeaderBytes
	// Clear the in-use bit in the header.
	if err := f.m.RawStore64(addr-HeaderBytes, cls); err != nil {
		return err
	}
	if cls <= largeClass {
		f.bins[cls] = append(f.bins[cls], addr)
	} else {
		f.large = append(f.large, chunk{addr: addr, size: cls})
	}
	return nil
}

// Reset discards every chunk — free bins, the large list, and live
// allocations — and rewinds the underlying arena, restoring the
// NewFreeList state while keeping the map and slice capacity for reuse.
// Guest-side chunk headers are not touched; the owning Memory is reset
// separately and the arena will carve fresh chunks from its base again.
func (f *FreeList) Reset() {
	clear(f.bins)
	f.large = f.large[:0]
	clear(f.allocated)
	f.live = 0
	f.a.Reset()
}

// LiveBytes reports currently allocated bytes including headers.
func (f *FreeList) LiveBytes() uint64 { return f.live }

package heap

import (
	"fmt"
	"math"

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

	bins   [largeClass / 16][]uint64 // class/16-1 -> free payload addresses, LIFO
	large  []chunk                   // free large chunks, unsorted first-fit
	chunks chunkTable                // live chunks by payload address

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

// maxClass is the largest chunk class, far beyond any arena the runtime
// maps: a chunk-table entry holds the class in granules in 31 bits. A
// larger request fails before its size is rounded.
const maxClass = math.MaxUint32 >> 1 << 4

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
	return &FreeList{m: m, a: a, chunks: chunkTable{base: a.base}}
}

// sizeClass rounds a request up to its chunk class; it reports false for
// a request above maxClass.
func sizeClass(n uint64) (uint64, bool) {
	if n > maxClass {
		return 0, false
	}
	if n < 16 {
		n = 16
	}
	return (n + 15) &^ 15, true
}

// Malloc allocates size bytes of payload, 16-byte aligned, and returns the
// payload address.
func (f *FreeList) Malloc(size uint64) (uint64, error) {
	f.m.Tick(freeListMallocCost)
	cls, ok := sizeClass(size)
	if !ok {
		return 0, fmt.Errorf("%w: malloc of %d bytes", ErrOutOfMemory, size)
	}

	var payload uint64
	if cls <= largeClass {
		if bin := &f.bins[cls/16-1]; len(*bin) > 0 {
			payload = (*bin)[len(*bin)-1]
			*bin = (*bin)[:len(*bin)-1]
		}
	} else if i := f.findLarge(cls); i >= 0 {
		payload = f.large[i].addr
		// First-fit without splitting remainder back (fastbin-like);
		// the class is the stored size so there is no loss here.
		f.large = append(f.large[:i], f.large[i+1:]...)
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
	*f.chunks.add(payload) = chunkEntry(cls)
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
	e := f.chunks.entry(addr)
	if e == nil || *e == 0 {
		return fmt.Errorf("%w %#x", ErrBadFree, addr)
	}
	cls := entryClass(*e)
	*e = 0
	f.live -= cls + HeaderBytes
	// Clear the in-use bit in the header.
	if err := f.m.RawStore64(addr-HeaderBytes, cls); err != nil {
		return err
	}
	if cls <= largeClass {
		f.bins[cls/16-1] = append(f.bins[cls/16-1], addr)
	} else {
		f.large = append(f.large, chunk{addr: addr, size: cls})
	}
	return nil
}

// Wrapped reports whether addr is the payload of a live chunk flagged by
// SetWrapped. The wrapped allocator flags its chunks so that a free can
// tell them from plain free-list chunks before it writes anything.
func (f *FreeList) Wrapped(addr uint64) bool {
	e := f.chunks.entry(addr)
	return e != nil && *e&1 != 0
}

// SetWrapped sets or clears the wrapped flag of the live chunk at payload
// addr; it does nothing for any other address. Free clears the flag.
func (f *FreeList) SetWrapped(addr uint64, on bool) {
	if e := f.chunks.entry(addr); e != nil && *e != 0 {
		if on {
			*e |= 1
		} else {
			*e &^= 1
		}
	}
}

// Reset discards every chunk — free bins, the large list, and live
// allocations — and rewinds the underlying arena, restoring the
// NewFreeList state while keeping the bins' and the chunk table's host
// memory for reuse. Guest-side chunk headers are not touched; the owning
// Memory is reset separately and the arena will carve fresh chunks from
// its base again.
func (f *FreeList) Reset() {
	for i := range f.bins {
		f.bins[i] = f.bins[i][:0]
	}
	f.large = f.large[:0]
	f.chunks.reset()
	f.live = 0
	f.a.Reset()
}

// LiveBytes reports currently allocated bytes including headers.
func (f *FreeList) LiveBytes() uint64 { return f.live }

// Chunk-table geometry: one entry per 16-byte granule of the arena, in
// leaves of one 4 KiB arena page, and directory nodes of 512 leaves.
const (
	granuleShift = 4
	leafShift    = 12
	dirShift     = leafShift + 9
	leafEntries  = 1 << (leafShift - granuleShift)
	dirLeaves    = 1 << (dirShift - leafShift)
)

// chunkTable records the live chunks of a free list by payload address.
// An entry is the chunk's class in granules shifted left once, with bit 0
// the wrapped flag; 0 means no live chunk's payload starts in that
// granule. Leaves are allocated on first use, so host memory follows the
// arena pages that chunk headers touch, not the break: one huge chunk
// costs one leaf. reset clears and detaches only the leaves it handed
// out, and keeps them for the next run.
type chunkTable struct {
	base   uint64
	dirs   []*[dirLeaves]*chunkLeaf // by arena offset >> dirShift
	leaves []uint64                 // arena page of each attached leaf
	spare  []*chunkLeaf             // cleared leaves, reused before new ones
}

type chunkLeaf [leafEntries]uint32

// chunkEntry and entryClass convert between a chunk class and the entry
// of a live, unflagged chunk of that class.
func chunkEntry(cls uint64) uint32 { return uint32(cls >> 4 << 1) }
func entryClass(e uint32) uint64   { return uint64(e>>1) << 4 }

// entry returns the entry of the payload address addr, or nil when addr
// is unaligned, outside the arena, or in a page without a leaf.
func (t *chunkTable) entry(addr uint64) *uint32 {
	off := addr - t.base
	if addr < t.base || off%(1<<granuleShift) != 0 || off>>dirShift >= uint64(len(t.dirs)) {
		return nil
	}
	d := t.dirs[off>>dirShift]
	if d == nil {
		return nil
	}
	l := d[off>>leafShift%dirLeaves]
	if l == nil {
		return nil
	}
	return &l[off>>granuleShift%leafEntries]
}

// add returns the entry of the 16-aligned arena address addr, attaching
// its leaf (and directory node) first if needed.
func (t *chunkTable) add(addr uint64) *uint32 {
	off := addr - t.base
	if n := off>>dirShift + 1; n > uint64(len(t.dirs)) {
		t.dirs = append(t.dirs, make([]*[dirLeaves]*chunkLeaf, n-uint64(len(t.dirs)))...)
	}
	d := t.dirs[off>>dirShift]
	if d == nil {
		d = new([dirLeaves]*chunkLeaf)
		t.dirs[off>>dirShift] = d
	}
	l := d[off>>leafShift%dirLeaves]
	if l == nil {
		if n := len(t.spare); n > 0 {
			l = t.spare[n-1]
			t.spare = t.spare[:n-1]
		} else {
			l = new(chunkLeaf)
		}
		d[off>>leafShift%dirLeaves] = l
		t.leaves = append(t.leaves, off>>leafShift)
	}
	return &l[off>>granuleShift%leafEntries]
}

// reset clears and detaches every attached leaf and keeps it as a spare.
func (t *chunkTable) reset() {
	for _, pg := range t.leaves {
		slot := &t.dirs[pg>>(dirShift-leafShift)][pg%dirLeaves]
		clear((*slot)[:])
		t.spare = append(t.spare, *slot)
		*slot = nil
	}
	t.leaves = t.leaves[:0]
}

package heap

import "fmt"

// Buddy is a binary buddy allocator handing out power-of-two sized,
// naturally aligned blocks — exactly the blocks the subheap scheme needs
// (§3.3.2: "power-of-2-sized and aligned memory blocks"). The subheap pool
// allocator is built on top of it (§4.2.1: "a pool allocator on top of a
// buddy allocator").
type Buddy struct {
	base     uint64
	minOrder uint
	maxOrder uint
	free     map[uint]map[uint64]struct{} // order -> set of free block addrs
	alloc    map[uint64]uint              // allocated block -> order

	used uint64 // bytes in allocated blocks
}

// NewBuddy builds a buddy allocator over [base, base+2^regionLog2), with
// blocks from 2^minLog2 up to 2^regionLog2 bytes. base must be aligned to
// the region size; impossible geometry is rejected with ErrBadConfig.
func NewBuddy(base uint64, regionLog2, minLog2 uint) (*Buddy, error) {
	if regionLog2 > 63 {
		return nil, fmt.Errorf("%w: buddy region order %d exceeds address space", ErrBadConfig, regionLog2)
	}
	if minLog2 > regionLog2 {
		return nil, fmt.Errorf("%w: buddy min order %d exceeds region order %d", ErrBadConfig, minLog2, regionLog2)
	}
	if base&(uint64(1)<<regionLog2-1) != 0 {
		return nil, fmt.Errorf("%w: buddy base %#x not aligned to region size 2^%d", ErrBadConfig, base, regionLog2)
	}
	b := &Buddy{
		base:     base,
		minOrder: minLog2,
		maxOrder: regionLog2,
		free:     make(map[uint]map[uint64]struct{}),
		alloc:    make(map[uint64]uint),
	}
	for o := minLog2; o <= regionLog2; o++ {
		b.free[o] = make(map[uint64]struct{})
	}
	b.free[regionLog2][base] = struct{}{}
	return b, nil
}

// Alloc returns a free block of 2^order bytes, splitting larger blocks as
// needed.
func (b *Buddy) Alloc(order uint) (uint64, error) {
	if order < b.minOrder {
		order = b.minOrder
	}
	if order > b.maxOrder {
		return 0, fmt.Errorf("%w: order %d exceeds region order %d", ErrOutOfMemory, order, b.maxOrder)
	}
	// Find the smallest order with a free block.
	o := order
	for o <= b.maxOrder && len(b.free[o]) == 0 {
		o++
	}
	if o > b.maxOrder {
		return 0, fmt.Errorf("%w: no block of order %d", ErrOutOfMemory, order)
	}
	// Pick the lowest-address free block: deterministic placement keeps
	// every simulation run bit-reproducible (map iteration order is not),
	// and dense placement is what a real buddy allocator converges to.
	var addr uint64
	first := true
	for a := range b.free[o] {
		if first || a < addr {
			addr = a
			first = false
		}
	}
	delete(b.free[o], addr)
	// Split down to the requested order, freeing the upper halves.
	for o > order {
		o--
		b.free[o][addr+uint64(1)<<o] = struct{}{}
	}
	b.alloc[addr] = order
	b.used += uint64(1) << order
	return addr, nil
}

// Free returns a block and coalesces with its buddy recursively.
func (b *Buddy) Free(addr uint64) error {
	order, ok := b.alloc[addr]
	if !ok {
		return fmt.Errorf("%w %#x", ErrBadBuddyFree, addr)
	}
	delete(b.alloc, addr)
	b.used -= uint64(1) << order
	for order < b.maxOrder {
		buddy := b.base + ((addr - b.base) ^ uint64(1)<<order)
		if _, free := b.free[order][buddy]; !free {
			break
		}
		delete(b.free[order], buddy)
		if buddy < addr {
			addr = buddy
		}
		order++
	}
	b.free[order][addr] = struct{}{}
	return nil
}

// Reset returns the allocator to its NewBuddy state: every block freed
// and coalesced back into the single region-sized block, counters zero.
// The per-order free sets are retained (emptied, not reallocated).
func (b *Buddy) Reset() {
	for o := b.minOrder; o <= b.maxOrder; o++ {
		clear(b.free[o])
	}
	clear(b.alloc)
	b.free[b.maxOrder][b.base] = struct{}{}
	b.used = 0
}

// Used reports bytes currently held in allocated blocks.
func (b *Buddy) Used() uint64 { return b.used }

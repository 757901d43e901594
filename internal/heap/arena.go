// Package heap provides the guest-memory allocators underneath the In-Fat
// Pointer runtime (§4.2.1): a bump arena, a glibc-style free-list malloc
// (the substrate of the *wrapped* allocator), and a buddy allocator (the
// substrate of the *subheap* pool allocator). Allocator bookkeeping that
// the real implementations keep in memory (chunk headers) is written into
// guest memory so the Figure-12 footprint comparison is honest; search
// structures are host-side for simulation speed, with the instruction cost
// of allocator work charged through the machine's Tick.
package heap

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an arena or allocator is exhausted.
var ErrOutOfMemory = errors.New("heap: out of memory")

// ErrBadRelease is returned by Arena.Release for a mark outside the
// arena's live range — a corrupted or stale mark. Guest-reachable (a
// corrupted stack mark reaches it), so it is a typed error, not a panic.
var ErrBadRelease = errors.New("heap: release mark out of range")

// ErrBadConfig is returned by allocator constructors for impossible
// geometry (order/alignment violations).
var ErrBadConfig = errors.New("heap: invalid allocator configuration")

// ErrBadFree is returned by FreeList.Free for an address that is not a
// live allocation — a double free or a free of a never-allocated pointer.
// Guest-reachable through the VM's free(), so it is a typed error, never
// a panic; the temporal mode additionally classifies double frees via the
// generation store before the free-list lookup runs.
var ErrBadFree = errors.New("heap: free of unallocated address")

// ErrBadBuddyFree is returned by Buddy.Free for a block that is not
// currently allocated (already freed or never issued). Guest-reachable
// through subheap whole-block release paths, so typed, never a panic.
var ErrBadBuddyFree = errors.New("heap: buddy free of unallocated block")

// Arena is a bump region of guest address space.
type Arena struct {
	base  uint64
	brk   uint64
	limit uint64
}

// NewArena creates an arena over [base, base+size).
func NewArena(base, size uint64) *Arena {
	return &Arena{base: base, brk: base, limit: base + size}
}

// Sbrk advances the break by n bytes (rounded to 16) and returns the old
// break. A request the arena cannot hold fails with ErrOutOfMemory and
// leaves the break unchanged, including one within 15 bytes of 2^64,
// whose rounding wraps.
func (a *Arena) Sbrk(n uint64) (uint64, error) {
	r := (n + 15) &^ 15
	if r < n || a.brk+r > a.limit || a.brk+r < a.brk {
		return 0, fmt.Errorf("%w: arena %#x..%#x brk %#x request %d",
			ErrOutOfMemory, a.base, a.limit, a.brk, max(r, n))
	}
	p := a.brk
	a.brk += r
	return p, nil
}

// Holds reports whether addr lies in the arena's live range [base, brk).
func (a *Arena) Holds(addr uint64) bool { return addr >= a.base && addr < a.brk }

// Mark snapshots the current break for a later Release (LIFO regions such
// as the guest stack).
func (a *Arena) Mark() uint64 { return a.brk }

// Release moves the break back to a previous Mark. A mark outside the
// arena's live range (corrupted, stale, or never issued by Mark) is
// rejected with ErrBadRelease and leaves the arena unchanged.
func (a *Arena) Release(mark uint64) error {
	if mark < a.base || mark > a.brk {
		return fmt.Errorf("%w: release to %#x outside [%#x,%#x]", ErrBadRelease, mark, a.base, a.brk)
	}
	a.brk = mark
	return nil
}

// Reset rewinds the break to the arena base, discarding every allocation.
// The region itself is fixed at construction, so a reset arena is
// identical to a freshly built one.
func (a *Arena) Reset() { a.brk = a.base }

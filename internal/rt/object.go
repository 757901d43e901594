package rt

import (
	"fmt"

	"infat/internal/heap"
	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/metadata"
	"infat/internal/tag"
)

// Obj is a registered guest object: its tagged pointer, the bounds the
// compiler statically knows at the allocation site (so no promote is
// needed for the fresh pointer, §3.4), and its size. The pointer's tag is
// the object's only registration record: its scheme selector and 12-bit
// metadata field locate the local-offset record, subheap control register
// or global-table row that release clears (§3.2–§3.3).
type Obj struct {
	P    Ptr
	B    machine.BoundsReg
	Size uint64
}

// Base returns the object's untagged base address.
func (o Obj) Base() uint64 { return tag.Addr(o.P) }

// place reserves an object of size bytes through reserve (the stack or
// globals arena, or the free list) and registers it under §4.2.2's scheme
// choice: local-offset metadata appended to the object when it fits the
// scheme, a global-table row otherwise — or always when forceRow is set
// (the ForceGlobalTable ablation). Stack locals, globals and wrapped heap
// chunks all take this one path. A registration that fails (a full
// global table, say) hands the reservation to release, which frees the
// chunk or moves the arena break back to base, where it stood; release
// cannot fail on a reservation just made, so its error is dropped.
func (r *Runtime) place(reserve func(uint64) (uint64, error), release func(uint64) error, size, layoutPtr uint64, forceRow bool) (Obj, error) {
	var p Ptr
	if size <= tag.MaxLocalObjectSize && !forceRow {
		_, footprint := metadata.LocalPlacement(0, size)
		base, err := reserve(footprint)
		if err != nil {
			return Obj{}, err
		}
		if p, err = r.registerLocalOffset(base, size, layoutPtr); err != nil {
			_ = release(base)
			return Obj{}, err
		}
	} else {
		base, err := reserve(size)
		if err != nil {
			return Obj{}, err
		}
		row, err := r.registerGlobalRow(base, size, layoutPtr)
		if err != nil {
			_ = release(base)
			return Obj{}, err
		}
		p = r.M.IfpMdGlobal(base, row)
	}
	return Obj{P: p, B: r.M.IfpBnd(p, size), Size: size}, nil
}

// registerLocalOffset writes local-offset metadata for an object at base
// and returns the tagged pointer. The instrumentation cost is ifpmac + two
// metadata stores + fixed setup (Listing 2's IFP_Register path).
func (r *Runtime) registerLocalOffset(base, size, layoutPtr uint64) (Ptr, error) {
	metaAddr, _ := metadata.LocalPlacement(base, size)
	m := metadata.Local{Size: uint16(size), LayoutPtr: layoutPtr}
	m.MAC = r.M.IfpMac(base, uint64(m.Size), m.LayoutPtr)
	w := m.Encode()
	r.M.Tick(localSetupCost)
	if err := r.M.RawStore64(metaAddr, w[0]); err != nil {
		return 0, err
	}
	if err := r.M.RawStore64(metaAddr+8, w[1]); err != nil {
		return 0, err
	}
	off, ok := metadata.LocalGranuleOffset(base, metaAddr)
	if !ok {
		return 0, fmt.Errorf("rt: local-offset unencodable for size %d", size)
	}
	return r.M.IfpMdLocal(base, off, 0), nil
}

// clearLocalOffset invalidates the metadata record (IFP_Deregister).
func (r *Runtime) clearLocalOffset(metaAddr uint64) error {
	r.M.Tick(localSetupCost)
	if err := r.M.RawStore64(metaAddr, 0); err != nil {
		return err
	}
	return r.M.RawStore64(metaAddr+8, 0)
}

// layoutFor returns the interned layout-table address for t, or 0 when
// the allocation site gives the compiler no aggregate type to describe
// (nil type, or a bare scalar/pointer element — the compiler generates
// tables for struct and array types, §4.2.2).
func (r *Runtime) layoutFor(t *layout.Type) (uint64, error) {
	if t == nil || (t.Kind != layout.KindStruct && t.Kind != layout.KindArray) {
		return 0, nil
	}
	addr, _, err := r.LayoutOf(t)
	if err != nil {
		return 0, err
	}
	return addr, nil
}

// StackRaw reserves unregistered stack scratch (spill slots, saved
// registers): plain frame space with no object metadata, costing only the
// stack-pointer arithmetic.
func (r *Runtime) StackRaw(size uint64) (uint64, error) {
	r.M.Tick(1)
	p, err := r.stackArena.Sbrk(size)
	if r.rec != nil && err == nil && size > 0 {
		r.rec.alloc(evStackRaw, p, size, size)
	}
	return p, wrapAlloc(err)
}

// StackMark snapshots the stack break for LIFO release of local frames.
func (r *Runtime) StackMark() uint64 {
	m := r.stackArena.Mark()
	if r.rec != nil {
		r.rec.mark(m)
	}
	return m
}

// StackRelease pops local frames back to a mark (function return). Pages
// stay mapped, like real stack RSS. A mark outside the stack's live
// range (corrupted or stale) is rejected with a typed allocator trap and
// leaves the stack unchanged.
func (r *Runtime) StackRelease(mark uint64) error {
	top := r.stackArena.Mark()
	err := r.stackArena.Release(mark)
	if r.rec != nil && err == nil {
		r.rec.release(mark, top)
	}
	return wrapAlloc(err)
}

// AllocLocal places a local variable of type t on the stack and registers
// it (Listing 2's IFP_Register on `boo`). The compiler prefers the
// local-offset scheme and falls back to the global table for oversized
// locals (§4.2.2). In baseline mode it is a plain stack bump.
func (r *Runtime) AllocLocal(t *layout.Type) (Obj, error) {
	o, err := r.allocLocalSized(t, t.Size())
	if r.rec != nil && err == nil {
		r.rec.alloc(evLocal, o.Base(), o.Size, r.rec.typeRef(t))
	}
	return o, wrapAlloc(err)
}

// AllocLocalBytes places an untyped local buffer (no layout table).
func (r *Runtime) AllocLocalBytes(size uint64) (Obj, error) {
	o, err := r.allocLocalSized(nil, size)
	if r.rec != nil && err == nil {
		r.rec.alloc(evLocalBytes, o.Base(), o.Size, size)
	}
	return o, wrapAlloc(err)
}

func (r *Runtime) allocLocalSized(t *layout.Type, size uint64) (Obj, error) {
	if !r.Instrumented() {
		r.M.Tick(1) // stack-pointer adjustment
	}
	return r.placeInArena(r.stackArena, t, size, &r.Stats.LocalObjects, &r.Stats.LocalWithLT)
}

// DeallocLocal deregisters a stack local or a global (IFP_Deregister in
// Listing 2). The VM calls it for every frame slot when the frame dies,
// and then pops the frame with StackRelease. An object outside the live
// stack and globals arenas — a heap chunk, which Free releases — is
// rejected before anything is written.
func (r *Runtime) DeallocLocal(o Obj) error {
	if base := o.Base(); !r.stackArena.Holds(base) && !r.globalArena.Holds(base) {
		return fmt.Errorf("rt: DeallocLocal of %#x, which is not a stack local or a global", base)
	}
	err := r.deregister(o)
	if r.rec != nil && err == nil {
		r.rec.free(evDealloc, o.Base())
	}
	return err
}

// deregister clears the metadata record o's tag names: the local-offset
// record its granule offset locates or the global-table row it indexes.
// Legacy pointers carry no record.
func (r *Runtime) deregister(o Obj) error {
	switch tag.SchemeOf(o.P) {
	case tag.SchemeLocalOffset:
		off, _ := tag.LocalFields(o.P)
		return r.clearLocalOffset(metadata.LocalMetaAddr(o.Base(), off))
	case tag.SchemeGlobalTable:
		return r.releaseGlobalRow(tag.GlobalIndex(o.P))
	}
	return nil
}

// RegisterGlobal registers a global variable of type t (the "getptr"
// instrumentation of §4.2.2 initializes metadata on first use; we register
// eagerly at startup, which is equivalent for accounting). Small globals
// use the local-offset scheme; large ones the global table.
func (r *Runtime) RegisterGlobal(t *layout.Type) (Obj, error) {
	o, err := r.placeInArena(r.globalArena, t, t.Size(), &r.Stats.GlobalObjects, &r.Stats.GlobalWithLT)
	if r.rec != nil && err == nil {
		r.rec.alloc(evGlobal, o.Base(), o.Size, r.rec.typeRef(t))
	}
	return o, wrapAlloc(err)
}

// RegisterGlobalBytes registers an untyped global buffer.
func (r *Runtime) RegisterGlobalBytes(size uint64) (Obj, error) {
	o, err := r.placeInArena(r.globalArena, nil, size, &r.Stats.GlobalObjects, &r.Stats.GlobalWithLT)
	if r.rec != nil && err == nil {
		r.rec.alloc(evGlobalBytes, o.Base(), o.Size, size)
	}
	return o, wrapAlloc(err)
}

// placeInArena places a stack local or a global of type t (nil: untyped)
// in arena a and counts it in objects and withLT. Uninstrumented runs get
// a plain bump with no metadata.
func (r *Runtime) placeInArena(a *heap.Arena, t *layout.Type, size uint64, objects, withLT *uint64) (Obj, error) {
	if size == 0 {
		size = 1
	}
	if !r.Instrumented() {
		base, err := a.Sbrk(size)
		if err != nil {
			return Obj{}, err
		}
		return Obj{P: base, Size: size}, nil
	}
	layoutPtr, err := r.layoutFor(t)
	if err != nil {
		return Obj{}, err
	}
	o, err := r.place(a.Sbrk, a.Release, size, layoutPtr, false)
	if err != nil {
		return Obj{}, err
	}
	*objects++
	if layoutPtr != 0 {
		*withLT++
	}
	return o, nil
}

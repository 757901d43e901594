package rt

import (
	"fmt"

	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/metadata"
	"infat/internal/tag"
)

// Malloc allocates an array of n objects of type t on the heap through the
// mode's allocator and returns the registered object. The compiler's
// allocator rewriting (§4.2.1) passes the type (and therefore the layout
// table) as an extra argument, so typed allocations can narrow to
// subobjects; use MallocBytes for allocations whose type the
// instrumentation cannot see (opaque wrappers — the CoreMark/bzip2 case).
func (r *Runtime) Malloc(t *layout.Type, n uint64) (Obj, error) {
	if t == nil || n == 0 {
		return Obj{}, fmt.Errorf("rt: Malloc needs a type and a count")
	}
	layoutPtr, err := r.layoutFor(t)
	if err != nil {
		return Obj{}, err
	}
	o, err := r.mallocSized(t.Size()*n, layoutPtr)
	if r.rec != nil && err == nil {
		r.rec.alloc(evMalloc, o.Base(), o.Size, r.rec.typeRef(t), n)
	}
	return o, wrapAlloc(err)
}

// MallocBytes allocates an untyped heap object (no layout table).
func (r *Runtime) MallocBytes(size uint64) (Obj, error) {
	o, err := r.mallocSized(size, 0)
	if r.rec != nil && err == nil {
		r.rec.alloc(evMallocBytes, o.Base(), o.Size, size)
	}
	return o, wrapAlloc(err)
}

// MallocLegacy models an allocation made by uninstrumented code (libc
// internals): it always goes through the baseline free list and returns an
// untagged pointer with no metadata, even in instrumented modes.
func (r *Runtime) MallocLegacy(size uint64) (Obj, error) {
	o, err := r.mallocLegacy(size)
	if r.rec != nil && err == nil {
		r.rec.alloc(evMallocLegacy, o.Base(), o.Size, size)
	}
	return o, err
}

func (r *Runtime) mallocLegacy(size uint64) (Obj, error) {
	if size == 0 {
		size = 1
	}
	if err := r.allocFaultCheck(); err != nil {
		return Obj{}, wrapAlloc(err)
	}
	p, err := r.fl.Malloc(size)
	if err != nil {
		return Obj{}, wrapAlloc(err)
	}
	return Obj{P: p, Size: size}, nil
}

func (r *Runtime) mallocSized(size uint64, layoutPtr uint64) (Obj, error) {
	if size == 0 {
		size = 1
	}
	if err := r.allocFaultCheck(); err != nil {
		return Obj{}, err
	}
	if r.mode == Baseline {
		p, err := r.fl.Malloc(size)
		if err != nil {
			return Obj{}, err
		}
		return Obj{P: p, Size: size}, nil
	}
	r.Stats.HeapObjects++
	if layoutPtr != 0 {
		r.Stats.HeapWithLT++
	}
	switch {
	case r.ForceGlobalTable || r.mode == Wrapped:
		return r.mallocWrapped(size, layoutPtr)
	case r.mode == Subheap:
		return r.mallocSubheap(size, layoutPtr)
	case r.mode == Hybrid:
		return r.mallocHybrid(size, layoutPtr)
	case r.mode == IFPTemporal:
		return r.mallocTemporal(size, layoutPtr)
	}
	return Obj{}, fmt.Errorf("rt: unknown mode %v", r.mode)
}

// mallocTemporal is the IFPTemporal allocation path: Hybrid's dynamic
// allocator selection (so the free list, the buddy allocator, and the
// subheap pools are all exercised by the same workloads), with the chunk's
// current generation stamped into the returned pointer's tag. Global-table
// fallbacks carry no generation field — all 12 bits name the row — and
// stay temporally unchecked, the documented gap of the scheme.
func (r *Runtime) mallocTemporal(size uint64, layoutPtr uint64) (Obj, error) {
	o, err := r.mallocHybrid(size, layoutPtr)
	if err != nil {
		return Obj{}, err
	}
	o.P = tag.WithGen(o.P, r.gens.Gen(o.Base()))
	return o, nil
}

// hybridGraduation is the allocation count at which a (size, type)
// signature moves from the wrapped path to a subheap pool.
const hybridGraduation = 4

// mallocHybrid selects the metadata scheme dynamically (§4.2.1 future
// work): hot signatures go to subheap pools where per-block metadata
// amortizes; cold ones take the wrapped path, whose setup is a single
// over-allocation. Frees dispatch on the pointer tag, so mixing is safe.
func (r *Runtime) mallocHybrid(size uint64, layoutPtr uint64) (Obj, error) {
	if size <= maxSubheapObject {
		key := poolKey{objSize: uint32(size), layoutPtr: layoutPtr}
		r.sigCount[key]++
		r.M.Tick(2) // site-count bookkeeping in the allocator fast path
		if r.sigCount[key] > hybridGraduation || r.pools[key] != nil {
			return r.mallocSubheap(size, layoutPtr)
		}
	}
	return r.mallocWrapped(size, layoutPtr)
}

// mallocWrapped implements the wrapped allocator (§4.2.1): a free-list
// chunk placed by §4.2.2's rule, transparently over-allocated for
// local-offset metadata when the object fits the scheme and registered in
// the global table otherwise. It is also every allocator's fallback for
// objects the subheap pools do not serve, and the whole story under the
// ForceGlobalTable ablation, which sends even small objects to the table.
func (r *Runtime) mallocWrapped(size uint64, layoutPtr uint64) (Obj, error) {
	o, err := r.place(r.fl.Malloc, r.fl.Free, size, layoutPtr, r.ForceGlobalTable)
	if err != nil {
		return Obj{}, err
	}
	r.fl.SetWrapped(o.Base(), true)
	return o, nil
}

// --- Subheap pool allocator (§4.2.1) ---

// poolKey identifies a pool: objects are grouped by exact size *and* type
// (layout identity), the §3.3.2 invariant that every object in a block has
// identical metadata.
type poolKey struct {
	objSize   uint32
	layoutPtr uint64
}

type pool struct {
	key      poolKey
	slotSize uint32
	// nextOrder is the buddy order the pool's next block will use. Blocks
	// grow geometrically (slab/jemalloc style): a pool with thousands of
	// live objects ends up with a handful of big blocks instead of
	// hundreds of small ones, which keeps the shared-metadata working set
	// to a few cache lines — the §5.2.2 metadata-sharing win depends on
	// it (all block metadata lines alias into the same L1D sets because
	// block bases are power-of-2 aligned).
	nextOrder uint
	maxOrder  uint
	partial   []*block
}

type block struct {
	pool      *pool
	base      uint64
	order     uint
	nSlots    uint32
	freeSlots []uint32
	liveSlots uint32
	// live has bit i set while slot i is handed out, so a second free of
	// a slot is rejected instead of queueing the slot twice.
	live []uint64
}

// subheapMetaReserve is the space reserved at the start of each block for
// the 32-byte shared metadata, rounded to a granule multiple so slots stay
// 16-byte aligned.
const subheapMetaReserve = 64

// maxSubheapObject is the largest object the pool allocator serves; larger
// allocations fall back to the global-table path over the free list (em3d
// allocates multi-thousand-element arrays that would waste whole blocks).
const maxSubheapObject = 1 << 20

// slotClass rounds an object size up to the nearest slot stride the
// hardware divider supports (§3.3.2: "power of two or fixed integer
// multiple of power of two"): the classes are 2^k and 3·2^(k-1), i.e.
// 16, 32, 48, 64, 96, 128, 192, 256, ... The padding this introduces on
// odd-sized objects is the source of em3d's high subheap memory overhead
// (§5.2.3).
func slotClass(objSize uint64) uint32 {
	s := (objSize + tag.Granule - 1) &^ uint64(tag.Granule-1)
	if s < tag.Granule {
		s = tag.Granule
	}
	pow := uint64(tag.Granule)
	for {
		if s <= pow {
			return uint32(pow)
		}
		if s <= pow/2*3 {
			return uint32(pow / 2 * 3)
		}
		pow <<= 1
	}
}

// choosePoolGeometry picks slot stride and initial block order for an
// object size: small objects pack many per 4-KiB block, larger ones get
// bigger blocks targeting at least 8 slots.
func choosePoolGeometry(objSize uint64) (slot uint32, order uint) {
	s := uint64(slotClass(objSize))
	order = 12
	for uint64(1)<<order < subheapMetaReserve+8*s && order < 24 {
		order++
	}
	return uint32(s), order
}

func (r *Runtime) mallocSubheap(size uint64, layoutPtr uint64) (Obj, error) {
	if size > maxSubheapObject {
		// Oversized: the wrapped allocator's global-table path.
		return r.mallocWrapped(size, layoutPtr)
	}

	r.M.Tick(poolAllocCost)
	key := poolKey{objSize: uint32(size), layoutPtr: layoutPtr}
	pl := r.pools[key]
	if pl == nil {
		slot, order := choosePoolGeometry(size)
		pl = &pool{key: key, slotSize: slot, nextOrder: order, maxOrder: 18}
		if pl.maxOrder < order {
			pl.maxOrder = order
		}
		r.pools[key] = pl
	}

	var blk *block
	if n := len(pl.partial); n > 0 {
		blk = pl.partial[n-1]
	} else {
		var err error
		blk, err = r.newBlock(pl)
		if err != nil {
			return Obj{}, err
		}
		pl.partial = append(pl.partial, blk)
	}

	slotIdx := blk.freeSlots[len(blk.freeSlots)-1]
	blk.freeSlots = blk.freeSlots[:len(blk.freeSlots)-1]
	blk.liveSlots++
	blk.live[slotIdx/64] |= 1 << (slotIdx % 64)
	if len(blk.freeSlots) == 0 {
		pl.partial = pl.partial[:len(pl.partial)-1]
	}

	addr := blk.base + subheapMetaReserve + uint64(slotIdx)*uint64(pl.slotSize)
	cr := r.crOfBits[uint8(blk.order)]
	p := r.M.IfpMdSubheap(addr, cr, 0)
	r.Stats.HeapPool++
	return Obj{P: p, B: r.M.IfpBnd(p, size), Size: size}, nil
}

// newBlock carves a fresh block from the buddy allocator, configures (or
// reuses) the control register for its size class, and writes the shared
// metadata record.
func (r *Runtime) newBlock(pl *pool) (*block, error) {
	order := pl.nextOrder
	if pl.nextOrder < pl.maxOrder {
		pl.nextOrder++
	}
	base, err := r.buddy.Alloc(order)
	if err != nil {
		return nil, err
	}
	crIdx, ok := r.crOfBits[uint8(order)]
	if !ok {
		if r.nextCR >= tag.NumSubheapCRs {
			return nil, ErrNoCRs
		}
		crIdx = uint16(r.nextCR)
		r.nextCR++
		r.crOfBits[uint8(order)] = crIdx
		r.M.CRs[crIdx] = metadata.CR{Valid: true, BlockBits: uint8(order), MetaOffset: 0}
	}

	blockSize := uint64(1) << order
	nSlots := uint32((blockSize - subheapMetaReserve) / uint64(pl.slotSize))
	md := metadata.Subheap{
		SlotStart: subheapMetaReserve,
		SlotEnd:   subheapMetaReserve + nSlots*pl.slotSize,
		SlotSize:  pl.slotSize,
		ObjSize:   pl.key.objSize,
		LayoutPtr: pl.key.layoutPtr,
	}
	md.MAC = r.M.IfpMacSubheap(base, md)

	r.M.Tick(blockSetupCost)
	for i, w := range md.Encode() {
		if err := r.M.RawStore64(base+uint64(i)*8, w); err != nil {
			return nil, err
		}
	}

	blk := r.spareBlock()
	*blk = block{pool: pl, base: base, order: order, nSlots: nSlots,
		live: append(blk.live[:0], make([]uint64, (nSlots+63)/64)...), freeSlots: blk.freeSlots[:0]}
	for i := uint32(0); i < nSlots; i++ {
		blk.freeSlots = append(blk.freeSlots, nSlots-1-i) // hand out slot 0 first
	}
	r.blocks[base] = blk
	return blk, nil
}

// spareBlock returns a block record to fill: one a whole-block free or a
// Reset retired, whose slices newBlock reuses, or a new one.
func (r *Runtime) spareBlock() *block {
	if n := len(r.spareBlocks); n > 0 {
		blk := r.spareBlocks[n-1]
		r.spareBlocks = r.spareBlocks[:n-1]
		return blk
	}
	return new(block)
}

// Free releases a heap object allocated with Malloc/MallocBytes/
// MallocLegacy, dispatching on its pointer tag's scheme. In IFPTemporal mode
// the free path first compares the pointer's stamped generation against
// the generation store — a pointer whose generation is already behind the
// store refers to a chunk freed since it was derived, so the free itself
// is a double free and traps TrapTemporal — and, on success, bumps the
// chunk's generation so every outstanding pointer into it goes stale.
func (r *Runtime) Free(o Obj) error {
	if r.mode == IFPTemporal {
		if err := r.TemporalFreeCheck(o.P); err != nil {
			return err
		}
		err := r.freeDispatch(o)
		if err == nil {
			r.gens.Bump(o.Base())
		}
		return err
	}
	err := r.freeDispatch(o)
	if r.rec != nil && err == nil {
		r.rec.free(evFree, o.Base())
	}
	return err
}

// TemporalFreeCheck is the generation comparison guarding every temporal-
// mode free: a TrapTemporal double-free trap when the pointer's stamped
// generation is behind the generation store. The VM calls it with the
// guest's *freeing* pointer before resolving the allocation record, so a
// free through a pointer whose chunk was freed and reallocated traps
// instead of releasing the unrelated new object at the same base.
// Pointers without a generation field (legacy, global-table) pass
// unchecked, and every non-temporal mode returns nil.
func (r *Runtime) TemporalFreeCheck(p Ptr) error {
	if r.mode != IFPTemporal {
		return nil
	}
	g, has := tag.Gen(p)
	if !has {
		return nil
	}
	base := tag.Addr(p)
	if !tag.GenMatches(g, r.gens.Gen(base), tag.GenBits(tag.SchemeOf(p))) {
		return &machine.Trap{Kind: machine.TrapTemporal, Ptr: p,
			Msg: "double free: pointer generation is behind the generation store"}
	}
	return nil
}

// freeDispatch releases o by its tag's scheme. A wrapped free needs a
// live wrapped chunk before anything is written: a stack local, a global
// or a chunk never handed out (or already freed) is rejected untouched.
// A legacy free of a live wrapped chunk is rejected too, since it would
// leave the chunk's metadata record behind.
func (r *Runtime) freeDispatch(o Obj) error {
	base := o.Base()
	switch tag.SchemeOf(o.P) {
	case tag.SchemeLegacy:
		if r.fl.Wrapped(base) {
			return fmt.Errorf("rt: legacy free of wrapped chunk %#x", base)
		}
		return r.fl.Free(base)
	case tag.SchemeSubheap:
		return r.freeSubheap(o)
	}
	if !r.fl.Wrapped(base) {
		return fmt.Errorf("rt: wrapped free of unknown chunk %#x", base)
	}
	r.fl.SetWrapped(base, false)
	if err := r.deregister(o); err != nil {
		return err
	}
	return r.fl.Free(base)
}

func (r *Runtime) freeSubheap(o Obj) error {
	r.M.Tick(poolFreeCost)
	crIdx, _ := tag.SubheapFields(o.P)
	cr := r.M.CRs[crIdx]
	if !cr.Valid {
		return fmt.Errorf("rt: subheap free with invalid CR %d", crIdx)
	}
	base := cr.BlockBase(tag.Addr(o.P))
	blk, ok := r.blocks[base]
	if !ok {
		return fmt.Errorf("rt: subheap free of unknown block %#x", base)
	}
	rel := tag.Addr(o.P) - base - subheapMetaReserve
	slotIdx := uint32(rel / uint64(blk.pool.slotSize))
	if rel%uint64(blk.pool.slotSize) != 0 || slotIdx >= blk.nSlots {
		return fmt.Errorf("rt: subheap free of non-slot address %#x", tag.Addr(o.P))
	}
	bit := uint64(1) << (slotIdx % 64)
	if blk.live[slotIdx/64]&bit == 0 {
		return fmt.Errorf("rt: subheap free of slot %#x that is not live", tag.Addr(o.P))
	}
	blk.live[slotIdx/64] &^= bit
	wasFull := len(blk.freeSlots) == 0
	blk.freeSlots = append(blk.freeSlots, slotIdx)
	blk.liveSlots--
	pl := blk.pool
	if blk.liveSlots == 0 {
		// Whole block free: clear metadata and return it to the buddy.
		for i := 0; i < metadata.SubheapMetaBytes/8; i++ {
			if err := r.M.RawStore64(base+uint64(i)*8, 0); err != nil {
				return err
			}
		}
		delete(r.blocks, base)
		removeBlock(&pl.partial, blk)
		r.spareBlocks = append(r.spareBlocks, blk)
		return r.buddy.Free(base)
	}
	if wasFull {
		pl.partial = append(pl.partial, blk)
	}
	return nil
}

func removeBlock(list *[]*block, b *block) {
	for i, x := range *list {
		if x == b {
			(*list)[i] = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
			return
		}
	}
}

package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"infat/internal/mac"
	"infat/internal/metadata"
	"infat/internal/tag"
)

// The differential test keeps a set of local-offset objects and subheap
// blocks in the memory of two machines and drives both through the same
// random steps: ifpmac, promotes of honest and tampered records, key
// swaps and Reset. The reference machine's MAC memo is emptied before
// every step, so each MAC it checks is a fresh mac.Object computation;
// the machine under test keeps its memo throughout.

const (
	memoCR      = 3            // the control register every test block uses
	localRegion = 0x10_0000    // local-offset objects, 64 bytes apart
	blockRegion = 0x1000_0000  // 4 KiB subheap blocks
	layoutBase  = 0x70_0000    // stand-in layout pointers (never walked)
	localStride = uint64(64)   // an object of at most 48 bytes plus its record
	blockSize   = uint64(4096) // block order 12, the subheap's smallest
)

type memoLocal struct {
	base      uint64
	size      uint16
	layoutPtr uint64 // as last registered
}

type memoBlock struct {
	base uint64
	md   metadata.Subheap
}

type memoTwin struct {
	t       *testing.T
	m, ref  *Machine
	locals  []memoLocal
	blocks  []memoBlock
	keys    []mac.Key
	log     []string // the steps so far, for failure messages
	valid   int      // promotes that retrieved bounds
	failed  int      // promotes that fetched metadata and poisoned
	swapped int      // promotes that failed under a non-default key
}

// sameSlot returns n addresses from start up, step apart, that all map to
// the given MAC memo slot.
func sameSlot(slot, start, step uint64, n int) []uint64 {
	var out []uint64
	for a := start; len(out) < n; a += step {
		if macSlot(a) == slot {
			out = append(out, a)
		}
	}
	return out
}

// memoBases picks the objects' and blocks' bases: a run of neighbours of
// each kind, several bases of each kind that share one memo slot, and a
// local object that shares its slot with a block.
func memoBases() (locals, blocks []uint64) {
	for i := uint64(0); i < 6; i++ {
		locals = append(locals, localRegion+i*localStride)
		blocks = append(blocks, blockRegion+i*blockSize)
	}
	far := uint64(blockRegion + 64*blockSize)
	shared := sameSlot(macSlot(far), far, blockSize, 4)
	blocks = append(blocks, shared...)
	start := uint64(localRegion + 6*localStride)
	locals = append(locals, sameSlot(macSlot(start), start, localStride, 4)...)
	cross := uint64(localRegion + 0x80_0000)
	locals = append(locals, sameSlot(macSlot(shared[0]), cross, localStride, 1)...)
	return locals, blocks
}

func newMemoTwin(t *testing.T, rng *rand.Rand) *memoTwin {
	tw := &memoTwin{t: t, m: New(), ref: New(),
		keys: []mac.Key{mac.NewKey(DefaultKeySeed), mac.NewKey(1), mac.NewKey(2)}}
	lb, bb := memoBases()
	for _, b := range lb {
		tw.locals = append(tw.locals, memoLocal{base: b, size: uint16(1 + rng.Intn(48))})
	}
	for _, b := range bb {
		slotSize := uint32(16 << rng.Intn(3))
		start := uint32(32 + 32*rng.Intn(2))
		n := uint32(1 + rng.Intn(int((uint32(blockSize)-start)/slotSize)))
		tw.blocks = append(tw.blocks, memoBlock{base: b, md: metadata.Subheap{
			SlotStart: start, SlotEnd: start + n*slotSize, SlotSize: slotSize,
			ObjSize: slotSize - uint32(rng.Intn(int(slotSize))), LayoutPtr: tw.layoutPtr(rng)}})
	}
	tw.install()
	return tw
}

func (tw *memoTwin) layoutPtr(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return layoutBase + uint64(rng.Intn(64))*16
}

// install configures the blocks' control register and registers every
// record under the current key, as after a Reset.
func (tw *memoTwin) install() {
	for _, m := range []*Machine{tw.m, tw.ref} {
		m.CRs[memoCR] = metadata.CR{Valid: true, BlockBits: 12, MetaOffset: 0}
	}
	for i := range tw.locals {
		tw.registerLocal(i, 0)
	}
	for i := range tw.blocks {
		tw.registerBlock(i)
	}
}

// store writes words at addr in both machines' memory.
func (tw *memoTwin) store(addr uint64, words ...uint64) {
	for _, m := range []*Machine{tw.m, tw.ref} {
		for i, w := range words {
			if err := m.Mem.Store64(addr+uint64(i)*8, w); err != nil {
				tw.t.Fatal(err)
			}
		}
	}
}

func (tw *memoTwin) localMeta(l memoLocal) uint64 {
	meta, _ := metadata.LocalPlacement(l.base, uint64(l.size))
	return meta
}

// registerLocal runs ifpmac for local object i on both machines and writes
// its honest record.
func (tw *memoTwin) registerLocal(i int, layoutPtr uint64) {
	l := &tw.locals[i]
	l.layoutPtr = layoutPtr
	md := metadata.Local{Size: l.size, LayoutPtr: layoutPtr}
	md.MAC = tw.m.IfpMac(l.base, uint64(l.size), layoutPtr)
	if ref := tw.ref.IfpMac(l.base, uint64(l.size), layoutPtr); md.MAC != ref {
		tw.fail("ifpmac local %#x = %#x, reference %#x", l.base, md.MAC, ref)
	}
	w := md.Encode()
	tw.store(tw.localMeta(*l), w[0], w[1])
}

// registerBlock runs ifpmac for block i on both machines and writes its
// honest record.
func (tw *memoTwin) registerBlock(i int) {
	b := &tw.blocks[i]
	b.md.MAC = tw.m.IfpMacSubheap(b.base, b.md)
	if ref := tw.ref.IfpMacSubheap(b.base, b.md); b.md.MAC != ref {
		tw.fail("ifpmac block %#x = %#x, reference %#x", b.base, b.md.MAC, ref)
	}
	w := b.md.Encode()
	tw.store(b.base, w[:]...)
}

func (tw *memoTwin) fail(format string, args ...any) {
	tw.t.Helper()
	n := len(tw.log)
	tw.t.Fatalf("after %d steps: %s\nlast steps: %q", n, fmt.Sprintf(format, args...), tw.log[max(0, n-8):])
}

// promote promotes p on both machines and requires identical results.
func (tw *memoTwin) promote(p uint64) {
	q, b := tw.m.Promote(p)
	rq, rb := tw.ref.Promote(p)
	if q != rq || b != rb {
		tw.fail("promote %s = %s %+v, reference %s %+v", tag.Format(p), tag.Format(q), b, tag.Format(rq), rb)
	}
	switch {
	case b.Valid:
		tw.valid++
	case tag.PoisonOf(q) == tag.Invalid:
		tw.failed++
		if tw.m.Key != tw.keys[0] {
			tw.swapped++
		}
	}
}

// checkRecord requires the memoized MAC of a record's current and honest
// fields to equal mac.Object under the current key.
func (tw *memoTwin) checkRecord(fields ...[3]uint64) {
	for _, f := range fields {
		if got, want := tw.m.objectMAC(f[0], f[1], f[2]), mac.Object(tw.m.Key, f[0], f[1], f[2]); got != want {
			tw.fail("memoized MAC of %#x = %#x, mac.Object gives %#x", f, got, want)
		}
	}
}

func (tw *memoTwin) localFields(i int) [2][3]uint64 {
	l := tw.locals[i]
	meta := tw.localMeta(l)
	w0, _ := tw.m.Mem.Load64(meta)
	md := metadata.DecodeLocal(w0, 0)
	cur := [3]uint64{}
	cur[0], cur[1], cur[2] = metadata.LocalMACFields(metadata.LocalObjectBase(meta, md.Size), md.Size, md.LayoutPtr)
	honest := [3]uint64{}
	honest[0], honest[1], honest[2] = metadata.LocalMACFields(l.base, l.size, l.layoutPtr)
	return [2][3]uint64{cur, honest}
}

func (tw *memoTwin) blockFields(i int) [2][3]uint64 {
	b := tw.blocks[i]
	var w [4]uint64
	for j := range w {
		w[j], _ = tw.m.Mem.Load64(b.base + uint64(j)*8)
	}
	cur, honest := [3]uint64{}, [3]uint64{}
	cur[0], cur[1], cur[2] = metadata.SubheapMACFields(b.base, metadata.DecodeSubheap(w))
	honest[0], honest[1], honest[2] = metadata.SubheapMACFields(b.base, b.md)
	return [2][3]uint64{cur, honest}
}

// step performs one random operation on both machines and checks them.
func (tw *memoTwin) step(rng *rand.Rand) {
	tw.ref.macMemo = [macMemoSize]macEntry{}
	i, j := rng.Intn(len(tw.locals)), rng.Intn(len(tw.blocks))
	l, b := tw.locals[i], tw.blocks[j]
	var fields [2][3]uint64
	switch op := rng.Intn(37); {
	case op < 4: // ifpmac, possibly with a new layout pointer
		tw.log = append(tw.log, fmt.Sprintf("ifpmac local %#x", l.base))
		tw.registerLocal(i, tw.layoutPtr(rng))
		fields = tw.localFields(i)
	case op < 8:
		tw.log = append(tw.log, fmt.Sprintf("ifpmac block %#x", b.base))
		tw.registerBlock(j)
		fields = tw.blockFields(j)
	case op < 16: // promote an interior or one-past-the-end pointer
		addr := l.base + uint64(rng.Intn(int(l.size)+1))
		off, _ := metadata.LocalGranuleOffset(addr, tw.localMeta(l))
		tw.log = append(tw.log, fmt.Sprintf("promote local %#x", addr))
		tw.promote(tag.MakeLocal(addr, off, 0))
		fields = tw.localFields(i)
	case op < 24: // promote anywhere in the block, metadata and tail included
		addr := b.base + uint64(rng.Intn(int(blockSize)))
		tw.log = append(tw.log, fmt.Sprintf("promote block %#x", addr))
		tw.promote(tag.MakeSubheap(addr, memoCR, 0))
		fields = tw.blockFields(j)
	case op < 28: // tamper with a local record: size, layout pointer, or MAC
		meta := tw.localMeta(l)
		w0, _ := tw.m.Mem.Load64(meta)
		w1, _ := tw.m.Mem.Load64(meta + 8)
		md := metadata.DecodeLocal(w0, w1)
		switch rng.Intn(4) {
		case 0:
			md.Size = uint16(1 + rng.Intn(48))
		case 1:
			md.LayoutPtr = tw.layoutPtr(rng)
		case 2:
			md.MAC ^= 1 << rng.Intn(mac.Size)
		case 3: // a MAC that is valid for another record
			other := tw.locals[rng.Intn(len(tw.locals))]
			md.MAC = mac.Object(tw.m.Key, other.base, uint64(other.size), md.LayoutPtr)
		}
		tw.log = append(tw.log, fmt.Sprintf("tamper local %#x -> %+v", l.base, md))
		w := md.Encode()
		tw.store(meta, w[0], w[1])
		fields = tw.localFields(i)
	case op < 32: // tamper with a block record: one slot field, layout pointer, or MAC
		md := b.md
		switch rng.Intn(6) {
		case 0:
			md.SlotStart += 16
		case 1:
			md.SlotEnd -= md.SlotSize
		case 2:
			md.SlotSize += 16
		case 3:
			md.ObjSize = uint32(1 + rng.Intn(int(md.SlotSize)))
		case 4:
			md.LayoutPtr = tw.layoutPtr(rng)
		case 5:
			md.MAC ^= 1 << rng.Intn(mac.Size)
		}
		tw.log = append(tw.log, fmt.Sprintf("tamper block %#x -> %+v", b.base, md))
		w := md.Encode()
		tw.store(b.base, w[:]...)
		fields = tw.blockFields(j)
	case op < 36: // swap the key, away from the default and back
		k := tw.keys[rng.Intn(len(tw.keys))]
		tw.log = append(tw.log, fmt.Sprintf("key %#x", k))
		tw.m.Key, tw.ref.Key = k, k
		fields = tw.localFields(i)
	default:
		tw.log = append(tw.log, "reset")
		tw.m.Reset()
		tw.ref.Reset()
		tw.install()
		fields = tw.blockFields(j)
	}
	if tw.m.C != tw.ref.C {
		tw.fail("counters %+v, reference %+v", tw.m.C, tw.ref.C)
	}
	tw.checkRecord(fields[0], fields[1])
}

// TestMACMemoMatchesReference drives the memoized machine and a reference
// through random ifpmac, promote, tamper, key-swap and Reset steps over
// records that share memo slots. Every promote must agree on pointer,
// poison and bounds, every counter (PromoteFailed included) must agree, and
// the memoized MAC of the step's record must equal mac.Object under the
// current key.
func TestMACMemoMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tw := newMemoTwin(t, rng)
		for n := 0; n < 3000; n++ {
			tw.step(rng)
		}
		if tw.valid == 0 || tw.failed == 0 || tw.swapped == 0 {
			t.Errorf("seed %d: %d valid, %d failed (%d under a swapped key) promotes; want each > 0",
				seed, tw.valid, tw.failed, tw.swapped)
		}
	}
}

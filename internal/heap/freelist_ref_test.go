package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"infat/internal/machine"
)

// refFreeList is the map-based free list: its bins and live chunks are Go
// maps keyed by size class and by payload address. It shares sizeClass
// and the arena with FreeList, so it carries the same size checks; the
// differential tests pin FreeList's array bins and chunk table to it.
type refFreeList struct {
	m *machine.Machine
	a *Arena

	bins      map[uint64][]uint64 // size class -> free payload addresses
	large     []chunk             // free large chunks, unsorted first-fit
	allocated map[uint64]uint64   // payload -> payload size

	live uint64
}

func newRefFreeList(m *machine.Machine, a *Arena) *refFreeList {
	return &refFreeList{m: m, a: a, bins: make(map[uint64][]uint64), allocated: make(map[uint64]uint64)}
}

func (f *refFreeList) Malloc(size uint64) (uint64, error) {
	f.m.Tick(freeListMallocCost)
	cls, ok := sizeClass(size)
	if !ok {
		return 0, fmt.Errorf("%w: malloc of %d bytes", ErrOutOfMemory, size)
	}
	var payload uint64
	switch {
	case cls <= largeClass && len(f.bins[cls]) > 0:
		bin := f.bins[cls]
		payload = bin[len(bin)-1]
		f.bins[cls] = bin[:len(bin)-1]
	case cls > largeClass:
		for i, c := range f.large {
			if c.size == cls {
				payload = c.addr
				f.large = append(f.large[:i], f.large[i+1:]...)
				break
			}
		}
	}
	if payload == 0 {
		f.m.Tick(sbrkCost)
		raw, err := f.a.Sbrk(HeaderBytes + cls)
		if err != nil {
			return 0, err
		}
		payload = raw + HeaderBytes
	}
	if err := f.m.RawStore64(payload-HeaderBytes, cls|1); err != nil {
		return 0, err
	}
	f.allocated[payload] = cls
	f.live += cls + HeaderBytes
	return payload, nil
}

func (f *refFreeList) Free(addr uint64) error {
	f.m.Tick(freeListFreeCost)
	cls, ok := f.allocated[addr]
	if !ok {
		return fmt.Errorf("%w %#x", ErrBadFree, addr)
	}
	delete(f.allocated, addr)
	f.live -= cls + HeaderBytes
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

func (f *refFreeList) Reset() {
	clear(f.bins)
	f.large = f.large[:0]
	clear(f.allocated)
	f.live = 0
	f.a.Reset()
}

// The differential arena: 1 MiB, so long streams reach ErrOutOfMemory.
const (
	diffBase = 0x1000_0000
	diffSize = 1 << 20
)

// freeListDiff drives a FreeList and the map-based oracle through one op
// stream, each over its own machine and arena, and fails on the first
// divergence in a payload address, an error's sentinel, LiveBytes, a
// guest header word or the instruction count.
type freeListDiff struct {
	t        testing.TB
	fm, rm   *machine.Machine
	f        *FreeList
	ref      *refFreeList
	payloads []uint64 // every payload returned so far, live or not

	// Outcome counts, so a test can show its stream reached every path.
	allocs, ooms, frees, badFrees int
}

func newFreeListDiff(t testing.TB) *freeListDiff {
	d := &freeListDiff{t: t, fm: machine.New(), rm: machine.New()}
	d.f = NewFreeList(d.fm, NewArena(diffBase, diffSize))
	d.ref = newRefFreeList(d.rm, NewArena(diffBase, diffSize))
	return d
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrOutOfMemory) == errors.Is(b, ErrOutOfMemory) &&
		errors.Is(a, ErrBadFree) == errors.Is(b, ErrBadFree)
}

func (d *freeListDiff) check(op string, addr uint64) {
	d.t.Helper()
	if d.f.LiveBytes() != d.ref.live {
		d.t.Fatalf("%s: LiveBytes = %d, oracle %d", op, d.f.LiveBytes(), d.ref.live)
	}
	if d.fm.C != d.rm.C {
		d.t.Fatalf("%s: counters = %+v, oracle %+v", op, d.fm.C, d.rm.C)
	}
	if addr >= diffBase+HeaderBytes && addr < diffBase+diffSize {
		got, _ := d.fm.Mem.Load64(addr - HeaderBytes)
		want, _ := d.rm.Mem.Load64(addr - HeaderBytes)
		if got != want {
			d.t.Fatalf("%s: header at %#x = %#x, oracle %#x", op, addr-HeaderBytes, got, want)
		}
	}
}

func (d *freeListDiff) malloc(size uint64) {
	d.t.Helper()
	p, err := d.f.Malloc(size)
	q, rerr := d.ref.Malloc(size)
	op := fmt.Sprintf("Malloc(%#x)", size)
	if p != q || !sameErr(err, rerr) {
		d.t.Fatalf("%s = %#x, %v; oracle %#x, %v", op, p, err, q, rerr)
	}
	if err == nil {
		d.allocs++
		d.payloads = append(d.payloads, p)
	} else if errors.Is(err, ErrOutOfMemory) {
		d.ooms++
	}
	d.check(op, p)
}

func (d *freeListDiff) free(addr uint64) {
	d.t.Helper()
	err, rerr := d.f.Free(addr), d.ref.Free(addr)
	op := fmt.Sprintf("Free(%#x)", addr)
	if !sameErr(err, rerr) {
		d.t.Fatalf("%s = %v; oracle %v", op, err, rerr)
	}
	if err == nil {
		d.frees++
	} else if errors.Is(err, ErrBadFree) {
		d.badFrees++
	}
	d.check(op, addr)
}

func (d *freeListDiff) reset() {
	d.t.Helper()
	d.f.Reset()
	d.ref.Reset()
	d.check("Reset", 0)
}

// step decodes one op from r (any bytes are a valid op) and applies it.
func (d *freeListDiff) step(r []byte) {
	d.t.Helper()
	v := binary.LittleEndian.Uint32(r[1:])
	switch r[0] % 8 {
	case 0, 1: // small class, up to 1024
		d.malloc(uint64(v % 1040))
	case 2: // large class
		d.malloc(largeClass + 1 + uint64(v%(64<<10)))
	case 3: // near 2^64, or past the arena
		if r[0]&8 != 0 {
			d.malloc(1<<64 - 1 - uint64(v%32))
		} else {
			d.malloc(diffSize - uint64(v%64))
		}
	case 4, 5: // a recent payload: live, freed or from before a reset
		if n := len(d.payloads); n > 0 {
			d.free(d.payloads[n-1-int(v)%min(n, 64)])
		}
	case 6: // unaligned, interior, below the base or past brk
		var base uint64
		if len(d.payloads) > 0 {
			base = d.payloads[int(v)%len(d.payloads)]
		}
		switch r[0] >> 3 % 5 {
		case 0:
			d.free(base + 8)
		case 1:
			d.free(base + 16*uint64(1+v%8))
		case 2:
			d.free(diffBase - 16*uint64(v%4))
		case 3:
			d.free(d.f.a.Mark() + 16*uint64(v%4))
		default:
			d.free(uint64(v) << 12)
		}
	case 7:
		d.reset()
	}
}

// TestFreeListMatchesMapOracle drives both free lists through a long
// pseudorandom stream of every op kind.
func TestFreeListMatchesMapOracle(t *testing.T) {
	d := newFreeListDiff(t)
	x := uint64(0x2545F4914F6CDD1D)
	var r [5]byte
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r[0] = byte(x)
		binary.LittleEndian.PutUint32(r[1:], uint32(x>>32))
		// Keep resets rare, so the arena fills and large chunks recycle.
		if r[0]%8 == 7 && x>>40%8 != 0 {
			r[0]--
		}
		d.step(r[:])
	}
	if d.allocs == 0 || d.ooms == 0 || d.frees == 0 || d.badFrees == 0 {
		t.Errorf("stream missed a path: %d allocs, %d out of memory, %d frees, %d bad frees",
			d.allocs, d.ooms, d.frees, d.badFrees)
	}
	t.Logf("%d allocs, %d out of memory, %d frees, %d bad frees", d.allocs, d.ooms, d.frees, d.badFrees)
}

// FuzzFreeList is the same differential over a fuzzed op stream: five
// bytes per op.
func FuzzFreeList(f *testing.F) {
	f.Add([]byte{0, 48, 0, 0, 0, 4, 0, 0, 0, 0, 4, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 32, 0, 0, 4, 0, 0, 0, 0, 2, 0, 32, 0, 0, 6, 1, 0, 0, 0})
	f.Add([]byte{11, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 16, 0, 0, 0})
	f.Add([]byte{0, 16, 0, 0, 0, 7, 0, 0, 0, 0, 5, 0, 0, 0, 0, 14, 0, 0, 0, 0, 22, 0, 0, 0, 0, 30, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := newFreeListDiff(t)
		for ; len(ops) >= 5; ops = ops[5:] {
			d.step(ops[:5])
		}
	})
}

func (t *chunkTable) attachedLeaves() int {
	n := 0
	for _, d := range t.dirs {
		if d != nil {
			for _, l := range d {
				if l != nil {
					n++
				}
			}
		}
	}
	return n
}

// TestChunkTableFollowsHeaders pins the table's host-memory bound: a huge
// chunk costs one leaf, not one per page of its payload, and Reset
// detaches every leaf.
func TestChunkTableFollowsHeaders(t *testing.T) {
	f := NewFreeList(machine.New(), NewArena(0x1000_0000, 512<<20))
	if _, err := f.Malloc(400 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Malloc(16); err != nil {
		t.Fatal(err)
	}
	if n := f.chunks.attachedLeaves(); n > 2 {
		t.Errorf("after Malloc(400 MiB), Malloc(16): %d leaves, want at most 2", n)
	}
	if n := len(f.chunks.leaves); n > 2 {
		t.Errorf("%d leaves recorded, want at most 2", n)
	}
	f.Reset()
	if n := f.chunks.attachedLeaves(); n != 0 {
		t.Errorf("after Reset: %d leaves, want 0", n)
	}
	if len(f.chunks.leaves) != 0 || len(f.chunks.spare) > 2 {
		t.Errorf("after Reset: %d recorded, %d spare leaves", len(f.chunks.leaves), len(f.chunks.spare))
	}
}

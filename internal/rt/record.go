package rt

// Footprint recording and replay (DESIGN.md §12). The three memory cells
// of a Figure-12 row run one workload at one scale under the baseline,
// subheap and wrapped allocators, and a workload requests the same
// objects and touches the same bytes of them in every mode. So one
// Baseline run, recorded, tells the other modes everything but what
// their own allocators do: Record logs the allocation-API calls in order
// and the 8-byte words each data access touched, relative to the base
// of the allocation it hit; Replay re-issues those calls through another
// mode's own API and touches the recorded words at that mode's
// addresses. Headers, layout tables, local-offset records, global-table
// rows, subheap block metadata and spill slots all come from the mode's
// real code, so the replayed runtime maps the pages its own run would.
//
// Words are exact where one hull per object is not: an object touched
// only at both ends maps its two end pages, not the pages between. That
// holds because every allocation base is 8-aligned in every mode, so a
// word never straddles a page; both sides check it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/mem"
)

// A recording is a stream of events, each an opcode byte and its
// uvarint operands. Allocations name a slot: the recorder's handle for a
// live allocation, recycled once the allocation dies, so the replayer's
// slot table is as long as the most allocations live at once. A frame is
// the events since the last release (or repeat) through the next
// release; a frame that repeats the one before it byte for byte is
// folded into an evRepeat count, so a loop that marks the stack,
// allocates locals and releases them records one frame.
const (
	evMalloc       = iota + 1 // slot, type, count
	evMallocBytes             // slot, size
	evMallocLegacy            // slot, size
	evFree                    // slot
	evLocal                   // slot, type
	evLocalBytes              // slot, size
	evDealloc                 // slot
	evStackRaw                // slot, size
	evMark                    // (pushes the replaying runtime's stack mark)
	evRelease                 // mark depth
	evGlobal                  // slot, type
	evGlobalBytes             // slot, size
	evSpill                   // slot, offset
	evReload                  // slot, offset
	evTouch                   // slot, runs, then per run: gap and length in words
	evRepeat                  // count: the previous frame, that many more times
)

// Recording is one Baseline run's allocation calls and touched words,
// ready to replay in any mode (Runtime.Replay).
type Recording struct {
	ev    []byte
	types []*layout.Type // the types Malloc, AllocLocal and RegisterGlobal named, by first use
	slots int            // slot table length: the highest slot used, plus one

	c      *recorder // whose buffers ev and types are, until Release
	rslots []uint64  // Replay's slot table, reused by each replay
}

// Release hands the recording's buffers back for the next Record; the
// recording must not be replayed after it.
func (rec *Recording) Release() { rec.c.recycle() }

// errRecord reports a run the recorder cannot describe exactly.
var errRecord = errors.New("rt: footprint recording")

// Record runs run on r, a Baseline runtime, on the footprint-only path,
// and returns the recording of r's allocation calls and data accesses.
// Every data access must lie inside one live allocation; an access that
// none covers, an allocation base that is not 16-aligned (every Baseline
// base is), or a release to a mark StackMark did not return fails the
// recording rather than guess.
// Allocator metadata traffic (RawLoad64, RawStore64) is not data and is
// not recorded. run's own error is returned as is. Replays run one at a
// time; Release hands the buffers back once they are done.
func (r *Runtime) Record(run func() error) (*Recording, error) {
	if r.mode != Baseline {
		return nil, fmt.Errorf("%w: %v runtime (record a baseline run)", errRecord, r.mode)
	}
	c := getRecorder()
	r.FootprintOnly()
	r.rec, r.M.Rec = c, c
	err := run()
	r.rec, r.M.Rec = nil, nil
	if err == nil {
		err = c.finish()
	}
	if err != nil {
		c.recycle()
		return nil, err
	}
	c.rec.ev, c.rec.types, c.rec.slots, c.rec.c = c.ev, c.types, len(c.slots), c
	return &c.rec, nil
}

// recorders keeps idle recorders, so a recording reuses the last one's
// granule table, slot table and event buffer instead of growing its own.
// Unlike a sync.Pool it survives garbage collections, which a kernel run
// between two recordings triggers many of. It keeps at most
// maxIdleRecorders, none holding more than maxIdleRecorderPages pages or
// an event buffer over maxIdleRecorderBytes. The bounds keep every
// recorder of the report's memory scale (perimeter's Baseline run maps
// 571 pages and records 554 KB at 4): dropping that one after each use
// made each pass allocate it afresh and raised the report's peak memory
// more than keeping it does. A recorder of a larger scale is dropped.
var recorders struct {
	sync.Mutex
	idle []*recorder
}

const (
	maxIdleRecorders     = 8
	maxIdleRecorderPages = 1024
	maxIdleRecorderBytes = 1 << 20
)

func getRecorder() *recorder {
	recorders.Lock()
	defer recorders.Unlock()
	if n := len(recorders.idle); n > 0 {
		c := recorders.idle[n-1]
		recorders.idle[n-1] = nil
		recorders.idle = recorders.idle[:n-1]
		return c
	}
	return &recorder{}
}

// Geometry of the recorder's table. Every allocation base is 16-aligned
// in a Baseline run (arena breaks and free-list payloads), so a 16-byte
// granule has at most one owner.
const (
	granuleBits  = 4
	granule      = 1 << granuleBits
	pageGranules = mem.PageSize / granule
	pageWords    = mem.PageSize / 8
	recNodeBits  = 9 // pages per directory node: 2 MiB of address space
	recNodePages = 1 << recNodeBits
	recTLBSize   = 256 // direct-mapped page cache of the access path
)

// recPage is what the access path reads of one guest page: a live bit
// per granule that a live slot owns, and a touched bit per word. It is
// kept apart from the page's owners, which only allocation calls and
// the access slow path read, so an access touches at most two lines.
type recPage struct {
	live    [pageGranules / 64]uint64
	touched [pageWords / 64]uint64
}

// recOwners is the slot owning each granule of a page (0: none).
type recOwners [pageGranules]uint32

// recSlot is a live allocation: its Baseline base and its size rounded
// up to whole granules.
type recSlot struct{ base, size uint64 }

// recTLBEntry caches one page's index in the table.
type recTLBEntry struct {
	pn  uint64
	idx uint32
}

// recorder is the state of one recording: the event stream, the type
// table, the live slots and the page-indexed granule table that maps an
// access to the slot it hits. The table is a directory with one entry
// per 2 MiB of address space, naming a node whose entries name each
// page's index in pages and owners; entries are indexes plus one (0:
// none), not pointers, so the access path stores no pointer and pays no
// GC write barrier.
type recorder struct {
	ev      []byte
	types   []*layout.Type
	typeIdx map[*layout.Type]uint64
	slots   []recSlot // slot 0 is never handed out
	dead    []uint32  // dead slots, reused last-in first-out
	marks   []uint64  // Baseline stack marks, strictly increasing
	dir     []uint32
	nodes   [][recNodePages]uint32
	pages   []recPage
	owners  []recOwners
	tlb     [recTLBSize]recTLBEntry
	runs    []uint64 // flush's scratch
	err     error
	rec     Recording // what Record hands out, holding the recorder's buffers

	// Frame folding (fold): where the open frame starts, the last frame
	// kept, and the evRepeat counting its copies (repeatAt 0: none).
	frameStart, prevStart, prevEnd, repeatAt int
	repeats                                  uint64
}

func (c *recorder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{errRecord}, args...)...)
	}
}

func (c *recorder) op(ev byte, args ...uint64) {
	c.ev = append(c.ev, ev)
	for _, a := range args {
		c.ev = binary.AppendUvarint(c.ev, a)
	}
}

// pageIdx returns page pn's index in the table plus one, attaching the
// page when create is set (0 otherwise). Attaching may move c.pages and
// c.owners, so a caller re-derives any pointer into them after it.
func (c *recorder) pageIdx(pn uint64, create bool) uint32 {
	t := &c.tlb[pn%recTLBSize]
	if t.pn == pn && t.idx != 0 {
		return t.idx
	}
	ni := pn >> recNodeBits
	if ni >= uint64(len(c.dir)) {
		if !create {
			return 0
		}
		c.dir = append(c.dir, make([]uint32, ni+1-uint64(len(c.dir)))...)
	}
	if c.dir[ni] == 0 {
		if !create {
			return 0
		}
		c.nodes = append(c.nodes, [recNodePages]uint32{})
		c.dir[ni] = uint32(len(c.nodes))
	}
	n := &c.nodes[c.dir[ni]-1]
	i := n[pn%recNodePages]
	if i == 0 {
		if !create {
			return 0
		}
		c.pages, c.owners = append(c.pages, recPage{}), append(c.owners, recOwners{})
		i = uint32(len(c.pages))
		n[pn%recNodePages] = i
	}
	*t = recTLBEntry{pn: pn, idx: i}
	return i
}

// owner returns the slot whose granule holds addr (0: none).
func (c *recorder) owner(addr uint64) uint32 {
	i := c.pageIdx(addr>>mem.PageBits, false)
	if i == 0 {
		return 0
	}
	return c.owners[i-1][addr%mem.PageSize/granule]
}

// setOwner gives every granule of [base, base+size) to slot s (0
// clears), a page at a time.
func (c *recorder) setOwner(base, size uint64, s uint32) {
	for a, end := base, base+size; a < end; {
		i := c.pageIdx(a>>mem.PageBits, true) - 1
		pg, own := &c.pages[i], &c.owners[i]
		for pageEnd := min(end, a|(mem.PageSize-1)+1); a < pageEnd; a += granule {
			g := a % mem.PageSize / granule
			own[g] = s
			if s != 0 {
				pg.live[g/64] |= 1 << (g % 64)
			} else {
				pg.live[g/64] &^= 1 << (g % 64)
			}
		}
	}
}

// alloc records an allocation call that returned an object at base of
// size bytes, emitting ev with the new slot first among args.
func (c *recorder) alloc(ev byte, base, size uint64, args ...uint64) {
	if base%granule != 0 {
		c.fail("allocation base %#x is not 16-aligned", base)
		return
	}
	size = (max(size, 1) + granule - 1) &^ (granule - 1)
	for a := base; a < base+size; a += granule {
		if o := c.owner(a); o != 0 {
			c.fail("allocation at %#x overlaps live allocation at %#x", base, c.slots[o].base)
			return
		}
	}
	var s uint32
	if k := len(c.dead); k > 0 {
		s, c.dead = c.dead[k-1], c.dead[:k-1]
	} else {
		if len(c.slots) == 0 {
			c.slots = append(c.slots, recSlot{})
		}
		s = uint32(len(c.slots))
		c.slots = append(c.slots, recSlot{})
	}
	c.slots[s] = recSlot{base: base, size: size}
	c.setOwner(base, size, s)
	c.ev = binary.AppendUvarint(append(c.ev, ev), uint64(s))
	for _, a := range args {
		c.ev = binary.AppendUvarint(c.ev, a)
	}
}

// free records a call that ended the allocation at base (Free,
// DeallocLocal).
func (c *recorder) free(ev byte, base uint64) {
	if s := c.slotAt(base); s != 0 {
		c.kill(s)
		c.op(ev, uint64(s))
	}
}

// typeRef returns t's index in the recording's type table.
func (c *recorder) typeRef(t *layout.Type) uint64 {
	if i, ok := c.typeIdx[t]; ok {
		return i
	}
	if c.typeIdx == nil {
		c.typeIdx = make(map[*layout.Type]uint64)
	}
	i := uint64(len(c.types))
	c.types = append(c.types, t)
	c.typeIdx[t] = i
	return i
}

// slotAt returns the live slot starting exactly at base (0: none).
func (c *recorder) slotAt(base uint64) uint32 {
	s := c.owner(base)
	if s == 0 || c.slots[s].base != base {
		c.fail("no live allocation starts at %#x", base)
		return 0
	}
	return s
}

// kill ends slot s: its touched words are flushed as an evTouch, its
// granules and words cleared, and the slot recycled. The caller emits
// the event that ended it.
func (c *recorder) kill(s uint32) {
	sl := c.slots[s]
	c.flush(s)
	c.setOwner(sl.base, sl.size, 0)
	c.slots[s] = recSlot{}
	c.dead = append(c.dead, s)
}

// flush emits slot s's touched words as an evTouch of runs, each its gap
// from the previous run's end and its length, in words from the slot's
// base, and clears them.
func (c *recorder) flush(s uint32) {
	sl := c.slots[s]
	runs := c.runs[:0]
	var prev, start uint64 // word offsets from the base
	in := false
	for a, end := sl.base, sl.base+sl.size; a < end; {
		pg := &c.pages[c.pageIdx(a>>mem.PageBits, false)-1]
		for pageEnd := min(end, a|(mem.PageSize-1)+1); a < pageEnd; a += 8 {
			i := a % mem.PageSize / 8
			t := pg.touched[i/64]>>(i%64)&1 != 0
			pg.touched[i/64] &^= 1 << (i % 64)
			if t == in {
				continue
			}
			if w := (a - sl.base) / 8; t {
				start = w
			} else {
				runs, prev = append(runs, start-prev, w-start), w
			}
			in = t
		}
	}
	if in {
		runs = append(runs, start-prev, sl.size/8-start)
	}
	c.runs = runs
	if len(runs) == 0 {
		return
	}
	c.op(evTouch, uint64(s), uint64(len(runs)/2))
	for _, v := range runs {
		c.ev = binary.AppendUvarint(c.ev, v)
	}
}

// Access implements machine.AccessRecorder: it marks the words of
// [addr, addr+size) touched, provided one live allocation holds them all.
// An access inside one granule of a cached page, as nearly every aligned
// access is, tests one live bit and sets the granule's touched bits,
// which share a bitmap word.
func (c *recorder) Access(addr uint64, size int) {
	last := addr + uint64(size) - 1
	pn := addr >> mem.PageBits
	if t := &c.tlb[pn%recTLBSize]; t.pn == pn && t.idx != 0 && last/granule == addr/granule {
		pg := &c.pages[t.idx-1]
		if g := addr % mem.PageSize / granule; pg.live[g/64]>>(g%64)&1 != 0 {
			w := addr % mem.PageSize / 8
			pg.touched[w/64] |= 1<<(w%64) | 1<<(last%mem.PageSize/8%64)
			return
		}
	}
	c.accessSlow(addr, last, size)
}

// accessSlow is Access for an access across granules or outside the
// page cache, and for one it fails: both ends must lie in one slot,
// whose granules are contiguous.
func (c *recorder) accessSlow(addr, last uint64, size int) {
	s := c.owner(addr)
	if s == 0 || last < addr || c.owner(last) != s {
		c.fail("access of %d bytes at %#x is not inside one live allocation", size, addr)
		return
	}
	for w := addr / 8; w <= last/8; w++ {
		c.pages[c.pageIdx(w/pageWords, false)-1].touched[w%pageWords/64] |= 1 << (w % 64)
	}
}

// mark records a StackMark at Baseline break brk.
func (c *recorder) mark(brk uint64) {
	if k := len(c.marks); k > 0 && c.marks[k-1] >= brk {
		// The stack is where the last live mark left it: a replaying
		// runtime's mark is the one already pushed.
		if c.marks[k-1] > brk {
			c.fail("stack mark %#x below live mark %#x", brk, c.marks[k-1])
		}
		return
	}
	c.marks = append(c.marks, brk)
	c.op(evMark)
}

// release records a StackRelease from break top back to mark, ending
// every allocation above it.
func (c *recorder) release(mark, top uint64) {
	k := len(c.marks) - 1
	for k >= 0 && c.marks[k] != mark {
		k--
	}
	if k < 0 {
		c.fail("stack release to %#x, which StackMark did not return", mark)
		return
	}
	c.marks = c.marks[:k+1]
	for a := mark; a < top; a += 1 << granuleBits {
		if s := c.owner(a); s != 0 {
			c.kill(s)
		}
	}
	c.op(evRelease, uint64(k))
	c.fold()
}

// fold ends the open frame at a release, dropping it for a count in the
// frame's evRepeat when it repeats the last frame kept.
func (c *recorder) fold() {
	if c.prevEnd > c.prevStart && bytes.Equal(c.ev[c.frameStart:], c.ev[c.prevStart:c.prevEnd]) {
		c.ev = c.ev[:c.frameStart]
		if c.repeatAt == 0 {
			c.repeatAt = len(c.ev)
		}
		c.repeats++
		c.ev = binary.AppendUvarint(append(c.ev[:c.repeatAt], evRepeat), c.repeats)
	} else {
		c.prevStart, c.prevEnd, c.repeatAt, c.repeats = c.frameStart, len(c.ev), 0, 0
	}
	c.frameStart = len(c.ev)
}

// spill records a bounds spill or reload of the 16 bytes at addr.
func (c *recorder) spill(ev byte, addr uint64) {
	s := c.owner(addr)
	if s == 0 || c.owner(addr+15) != s {
		c.fail("bounds spill slot %#x is not inside one live allocation", addr)
		return
	}
	c.op(ev, uint64(s), addr-c.slots[s].base)
}

// finish flushes every live allocation's words, or reports why the run
// could not be recorded.
func (c *recorder) finish() error {
	if c.err != nil {
		return c.err
	}
	for s := range c.slots {
		if c.slots[s].size != 0 {
			c.flush(uint32(s))
		}
	}
	return nil
}

// recycle empties the recorder and keeps it idle for the next
// recording, within the idle bounds.
func (c *recorder) recycle() {
	clear(c.dir)
	c.dir, c.nodes, c.pages, c.owners = c.dir[:0], c.nodes[:0], c.pages[:0], c.owners[:0]
	c.tlb = [recTLBSize]recTLBEntry{}
	clear(c.types)
	clear(c.typeIdx)
	c.ev, c.types = c.ev[:0], c.types[:0]
	c.slots, c.dead, c.marks = c.slots[:0], c.dead[:0], c.marks[:0]
	c.rec = Recording{rslots: c.rec.rslots[:0]}
	c.err = nil
	c.frameStart, c.prevStart, c.prevEnd, c.repeatAt, c.repeats = 0, 0, 0, 0, 0
	if cap(c.pages) > maxIdleRecorderPages || cap(c.ev) > maxIdleRecorderBytes {
		return
	}
	recorders.Lock()
	if len(recorders.idle) < maxIdleRecorders {
		recorders.idle = append(recorders.idle, c)
	}
	recorders.Unlock()
}

// Replay re-issues rec's allocation calls through r's own mode, on the
// footprint-only path, and touches every recorded word at r's address
// for it: r then maps the pages, and counts the Stats, its own
// footprint-only run of the recorded program would. An error leaves r
// part-way and is the caller's to discard.
func (r *Runtime) Replay(rec *Recording) error {
	r.FootprintOnly()
	rec.rslots = append(rec.rslots[:0], make([]uint64, rec.slots)...)
	p := replayer{r: r, rec: rec, slots: rec.rslots}
	return p.run(rec.ev)
}

// replayer is the state of one replay: each slot's object pointer in the
// replaying runtime, and its stack marks.
type replayer struct {
	r     *Runtime
	rec   *Recording
	slots []uint64
	marks []uint64
}

// run replays the events of b; an evRepeat runs the last frame again.
func (p *replayer) run(b []byte) error {
	r := p.r
	d := recDecoder{b: b}
	var frame []byte // the last frame, through its release
	start := 0       // where the open frame starts
	set := func(s uint64, o Obj, err error) error {
		switch {
		case err != nil:
			return err
		case s >= uint64(len(p.slots)):
			return fmt.Errorf("%w: slot %d out of range", errRecord, s)
		case o.Base()%8 != 0:
			return fmt.Errorf("%w: %v allocation base %#x is not 8-aligned", errRecord, r.mode, o.Base())
		}
		p.slots[s] = o.P
		return nil
	}
	typ := func(i uint64) *layout.Type {
		if i >= uint64(len(p.rec.types)) {
			d.err = fmt.Errorf("%w: type %d out of range", errRecord, i)
			return nil
		}
		return p.rec.types[i]
	}
	obj := func(s uint64) Obj {
		if s >= uint64(len(p.slots)) {
			d.err = fmt.Errorf("%w: slot %d out of range", errRecord, s)
			return Obj{}
		}
		return Obj{P: p.slots[s]}
	}
	for d.err == nil && len(d.b) > 0 {
		ev := d.b[0]
		d.b = d.b[1:]
		var err error
		switch ev {
		case evMalloc:
			s, t, n := d.u(), d.u(), d.u()
			if t := typ(t); d.err == nil {
				o, e := r.Malloc(t, n)
				err = set(s, o, e)
			}
		case evMallocBytes:
			s, n := d.u(), d.u()
			o, e := r.MallocBytes(n)
			err = set(s, o, e)
		case evMallocLegacy:
			s, n := d.u(), d.u()
			o, e := r.MallocLegacy(n)
			err = set(s, o, e)
		case evFree:
			if o := obj(d.u()); d.err == nil {
				err = r.Free(o)
			}
		case evLocal:
			s, t := d.u(), d.u()
			if t := typ(t); d.err == nil {
				o, e := r.AllocLocal(t)
				err = set(s, o, e)
			}
		case evLocalBytes:
			s, n := d.u(), d.u()
			o, e := r.AllocLocalBytes(n)
			err = set(s, o, e)
		case evDealloc:
			if o := obj(d.u()); d.err == nil {
				err = r.DeallocLocal(o)
			}
		case evStackRaw:
			s, n := d.u(), d.u()
			a, e := r.StackRaw(n)
			err = set(s, Obj{P: a}, e)
		case evMark:
			p.marks = append(p.marks, r.StackMark())
		case evRelease:
			k := d.u()
			if k >= uint64(len(p.marks)) {
				err = fmt.Errorf("%w: mark %d out of range", errRecord, k)
				break
			}
			err = r.StackRelease(p.marks[k])
			p.marks = p.marks[:k+1]
			end := len(b) - len(d.b)
			frame, start = b[start:end], end
		case evRepeat:
			n := d.u()
			start = len(b) - len(d.b)
			if frame == nil {
				err = fmt.Errorf("%w: repeat with no frame", errRecord)
			}
			for ; n > 0 && err == nil; n-- {
				err = p.run(frame)
			}
		case evGlobal:
			s, t := d.u(), d.u()
			if t := typ(t); d.err == nil {
				o, e := r.RegisterGlobal(t)
				err = set(s, o, e)
			}
		case evGlobalBytes:
			s, n := d.u(), d.u()
			o, e := r.RegisterGlobalBytes(n)
			err = set(s, o, e)
		case evSpill:
			o, off := obj(d.u()), d.u()
			if d.err == nil {
				err = r.SpillBounds(o.Base()+off, machine.Cleared)
			}
		case evReload:
			o, off := obj(d.u()), d.u()
			if d.err == nil {
				_, err = r.ReloadBounds(o.Base() + off)
			}
		case evTouch:
			o, n := obj(d.u()), d.u()
			w := o.Base() / 8
			for ; n > 0 && d.err == nil; n-- {
				w += d.u()
				end := w + d.u()
				if d.err == nil {
					err = r.touch(w*8, end*8)
				}
				w = end
			}
		default:
			err = fmt.Errorf("%w: unknown event %d", errRecord, ev)
		}
		if err != nil {
			return err
		}
	}
	return d.err
}

// touch maps every page of guest memory [lo, hi) as an access would.
func (r *Runtime) touch(lo, hi uint64) error {
	for a := lo; a < hi; a = (a | (mem.PageSize - 1)) + 1 {
		if _, err := r.M.Mem.LoadN(a, 1); err != nil {
			return err
		}
		if a|(mem.PageSize-1) == ^uint64(0) {
			break
		}
	}
	return nil
}

// recDecoder reads a recording's uvarint operands.
type recDecoder struct {
	b   []byte
	err error
}

func (d *recDecoder) u() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	return d.long()
}

// long reads an operand of more than one byte.
func (d *recDecoder) long() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated event stream", errRecord)
		return 0
	}
	d.b = d.b[n:]
	return v
}

package layout

import (
	"errors"
	"fmt"
)

// Entry is one flattened layout-table element (Figure 9b): the tuple
// {parent, base, bound, size}. Base and Bound are byte offsets from the
// base address of the parent subobject's *element*; Size is the element
// size if the entry describes an array, or bound-base otherwise. The number
// of array elements is (bound-base)/size, which the paper notes is never
// stored explicitly.
type Entry struct {
	Parent uint16
	Base   uint64
	Bound  uint64
	Size   uint64
}

// Guest-encoding field caps. Each entry packs into two 64-bit words:
//
//	word0 = parent:16 | base:24 | bound:24
//	word1 = size:32 | reserved:32
//
// The caps comfortably cover every object the narrowing schemes serve
// (local-offset objects are <=1008 bytes; subheap slots are block-bounded).
const (
	maxOffset = 1<<24 - 1 // base/bound cap (16 MiB)
	maxSize   = 1<<32 - 1 // element size cap

	// EntryBytes is the in-memory size of one encoded entry.
	EntryBytes = 16
)

// Errors reported by table construction and the narrowing walk.
var (
	ErrTooLarge   = errors.New("layout: subobject offset exceeds encodable range")
	ErrBadTable   = errors.New("layout: malformed layout table")
	ErrOutsideSub = errors.New("layout: address outside subobject element")
)

// Table is a per-type layout table. All objects of the same type share one
// table (§3.4: "memory-efficient because all objects of the same type can
// share a single table").
type Table struct {
	Type    *Type
	Entries []Entry
	// Paths names each entry for diagnostics and for compiler-side index
	// lookup, e.g. "", "v1", "array", "array[].v3".
	Paths []string
}

// Build flattens a type into its layout table using the depth-first
// pre-order of Figure 9: element 0 is the whole object; struct fields and
// array descents follow, each child after its parent (so Parent < index for
// every non-root entry).
func Build(t *Type) (*Table, error) {
	tb := &Table{Type: t}
	tb.Entries = append(tb.Entries, Entry{Parent: 0, Base: 0, Bound: t.Size(), Size: elemSize(t)})
	tb.Paths = append(tb.Paths, "")
	if err := tb.flatten(t, 0, ""); err != nil {
		return nil, err
	}
	for _, e := range tb.Entries {
		if e.Base > maxOffset || e.Bound > maxOffset || e.Size > maxSize {
			return nil, fmt.Errorf("%w: %+v", ErrTooLarge, e)
		}
	}
	return tb, nil
}

// elemSize is the "size" column of Figure 9b: the element size for arrays,
// the full size otherwise.
func elemSize(t *Type) uint64 {
	if t.Kind == KindArray {
		return t.Elem.Size()
	}
	return t.Size()
}

// flatten appends entries for the subobjects of t. parentIdx is the table
// index of the entry describing t (or t's element, if t is an array).
func (tb *Table) flatten(t *Type, parentIdx uint16, path string) error {
	switch t.Kind {
	case KindStruct:
		for _, f := range t.Fields {
			if f.Type.Size() == 0 {
				continue
			}
			idx := uint16(len(tb.Entries))
			tb.Entries = append(tb.Entries, Entry{
				Parent: parentIdx,
				Base:   f.Offset,
				Bound:  f.Offset + f.Type.Size(),
				Size:   elemSize(f.Type),
			})
			tb.Paths = append(tb.Paths, joinPath(path, f.Name))
			if err := tb.flatten(f.Type, idx, joinPath(path, f.Name)); err != nil {
				return err
			}
		}
	case KindArray:
		// The array entry itself was appended by our caller (its size
		// column already holds the element size); descend into the
		// element type relative to an element base.
		elem := t.Elem
		switch elem.Kind {
		case KindStruct:
			return tb.flatten(elem, parentIdx, path+"[]")
		case KindArray:
			idx := uint16(len(tb.Entries))
			tb.Entries = append(tb.Entries, Entry{
				Parent: parentIdx,
				Base:   0,
				Bound:  elem.Size(),
				Size:   elemSize(elem),
			})
			tb.Paths = append(tb.Paths, path+"[]")
			return tb.flatten(elem, idx, path+"[]")
		}
	}
	return nil
}

func joinPath(base, name string) string {
	if base == "" {
		return name
	}
	return base + "." + name
}

// IndexOf returns the table index of the named subobject path (e.g.
// "array[].v3"), as the compiler instrumentation would resolve it.
func (tb *Table) IndexOf(path string) (uint16, bool) {
	for i, p := range tb.Paths {
		if p == path {
			return uint16(i), true
		}
	}
	return 0, false
}

// Encode packs the table into guest words (two per entry).
func (tb *Table) Encode() []uint64 {
	words := make([]uint64, 0, 2*len(tb.Entries))
	for _, e := range tb.Entries {
		w0 := uint64(e.Parent) | (e.Base&maxOffset)<<16 | (e.Bound&maxOffset)<<40
		w1 := e.Size & maxSize
		words = append(words, w0, w1)
	}
	return words
}

// DecodeEntry unpacks one encoded entry.
func DecodeEntry(w0, w1 uint64) Entry {
	return Entry{
		Parent: uint16(w0),
		Base:   w0 >> 16 & maxOffset,
		Bound:  w0 >> 40 & maxOffset,
		Size:   w1 & maxSize,
	}
}

// Bounds is a resolved [Lower, Upper) address range.
type Bounds struct {
	Lower uint64
	Upper uint64
}

// Contains reports whether an access of size bytes at addr stays in bounds
// (the access-size check of §4.1: addr >= lower && addr+size <= upper).
func (b Bounds) Contains(addr, size uint64) bool {
	return addr >= b.Lower && addr+size <= b.Upper && addr+size >= addr
}

// Span returns the byte length of the range.
func (b Bounds) Span() uint64 { return b.Upper - b.Lower }

func (b Bounds) String() string { return fmt.Sprintf("[%#x,%#x)", b.Lower, b.Upper) }

// FetchFunc reads the two words of the layout-table entry at the given
// guest address. The machine's promote path supplies a fetcher that goes
// through the L1D model so metadata fetches are timed; tests supply one
// backed by Encode output.
type FetchFunc func(entryAddr uint64) (w0, w1 uint64, err error)

// WalkStats reports the cost of one narrowing walk, used by the cycle
// model: the layout-table walker is the most complex IFP-unit component
// (§5.3) and array-of-struct descents pay a multi-cycle division each.
type WalkStats struct {
	Fetches   int // layout-table entry fetches
	Divisions int // array-element index computations
	Depth     int // nesting depth resolved
}

// maxDepth bounds the parent chain; entries form a tree with Parent <
// index, so depth can never legitimately exceed the index itself. 64 covers
// every real type while keeping the hardware state machine small.
const maxDepth = 64

// chainInline is how many parent-chain entries Narrow holds without a
// heap allocation.
const chainInline = 8

// Narrow resolves the bounds of subobject idx of an object at [objBase,
// objBase+objSize), where addr is the pointer's current address (used to
// locate the array element under array-of-struct nesting). It implements
// the recursive procedure of §3.4 / Figure 9c: fetch the entry chain up to
// the root, then resolve bounds top-down, computing each array element's
// base with a division.
//
// tableAddr is the guest address of the encoded table. idx 0 (or a nil
// table pointer, handled by the caller) yields the object bounds.
func Narrow(fetch FetchFunc, tableAddr uint64, objBase, objSize, addr uint64, idx uint16) (Bounds, WalkStats, error) {
	var st WalkStats
	obj := Bounds{Lower: objBase, Upper: objBase + objSize}
	if idx == 0 {
		return obj, st, nil
	}

	// Phase 1: climb the parent chain (Figure 9c "fetching order"). Real
	// types nest a few levels deep, so the chain lives in a stack array;
	// append moves it to the heap only past chainInline levels.
	var inline [chainInline]Entry
	chain := inline[:0]
	cur := idx
	for cur != 0 {
		if st.Fetches >= maxDepth {
			return obj, st, ErrBadTable
		}
		w0, w1, err := fetch(tableAddr + uint64(cur)*EntryBytes)
		if err != nil {
			return obj, st, err
		}
		st.Fetches++
		e := DecodeEntry(w0, w1)
		if e.Parent >= cur || e.Bound < e.Base || e.Size == 0 {
			return obj, st, ErrBadTable
		}
		chain = append(chain, e)
		cur = e.Parent
	}

	// Fetch the root entry: heap allocations of n elements share the
	// element type's table (§3.4 table sharing), so the object may be an
	// array of entry-0-sized elements. The root entry's size column tells
	// the walker the element stride; when the object size equals it, the
	// root behaves as a plain (non-array) parent.
	w0, w1, err := fetch(tableAddr)
	if err != nil {
		return obj, st, err
	}
	st.Fetches++
	root := DecodeEntry(w0, w1)
	if root.Parent != 0 || root.Size == 0 || root.Bound < root.Base {
		return obj, st, ErrBadTable
	}

	elemBase := objBase
	elemSpan := objSize
	if objSize > root.Size {
		if addr < objBase || addr >= objBase+objSize {
			// Cannot identify the array element: coarsen (§3's
			// object-bounds guarantee under type mismatch).
			return obj, st, ErrOutsideSub
		}
		st.Divisions++
		elemIdx := (addr - objBase) / root.Size
		elemBase = objBase + elemIdx*root.Size
		elemSpan = root.Size
	}

	// Phase 2: resolve top-down (root-most chain element last in slice).
	b := obj
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		if e.Bound > elemSpan {
			// Child extends past its parent element: the type the table
			// describes does not fit the object — coarsen to object
			// bounds rather than trusting the table.
			return obj, st, ErrOutsideSub
		}
		lower := elemBase + e.Base
		upper := elemBase + e.Bound
		st.Depth++
		// Locate the array element the address falls in (for non-array
		// entries Size == Bound-Base so the quotient is 0 whenever the
		// address is inside, keeping the datapath uniform).
		span := e.Bound - e.Base
		if addr < lower || addr >= upper {
			// The pointer is outside this subobject element. The
			// hardware can still return the subobject's own bounds
			// (entry-level) when the entry is not under an array, but
			// under array nesting the element cannot be identified;
			// report it and let promote poison the result.
			if span != e.Size {
				return obj, st, ErrOutsideSub
			}
			// Non-array entry: bounds are fully determined by offsets.
			b = Bounds{Lower: lower, Upper: upper}
			elemBase = lower
			elemSpan = span
			continue
		}
		if span != e.Size {
			// Array entry: one hardware division per level.
			st.Divisions++
			elemIdx := (addr - lower) / e.Size
			elemBase = lower + elemIdx*e.Size
			elemSpan = e.Size
			b = Bounds{Lower: lower, Upper: upper}
			continue
		}
		b = Bounds{Lower: lower, Upper: upper}
		elemBase = lower
		elemSpan = span
	}
	// The innermost resolution gives the subobject bounds. If the
	// innermost entry is an array, the pointer may roam the whole array
	// (no per-element narrowing for direct array elements, matching §3.4:
	// "all array elements are represented by the single layout table
	// element").
	return b, st, nil
}

package layout

import "errors"

// ErrBadIndex is NarrowTable's error for an index past the table.
var ErrBadIndex = errors.New("layout: subobject index out of table")

// NarrowTable narrows against an in-process Table, with no guest memory:
// the tests' view of Narrow over an encoded table.
func NarrowTable(tb *Table, objBase, objSize, addr uint64, idx uint16) (Bounds, WalkStats, error) {
	if int(idx) >= len(tb.Entries) {
		return Bounds{Lower: objBase, Upper: objBase + objSize}, WalkStats{}, ErrBadIndex
	}
	words := tb.Encode()
	fetch := func(entryAddr uint64) (uint64, uint64, error) {
		i := int(entryAddr / EntryBytes)
		if i < 0 || 2*i+1 >= len(words) {
			return 0, 0, ErrBadIndex
		}
		return words[2*i], words[2*i+1], nil
	}
	return Narrow(fetch, 0, objBase, objSize, addr, idx)
}

// Package layout implements In-Fat Pointer's per-type layout tables (§3.4,
// Figure 9): a flattened tree of {parent, base, bound, size} entries that
// encodes the nesting of subobjects, plus the recursive bounds-narrowing
// walk the promote hardware performs. It also provides the guest type
// system used by the runtime, the compiler, and the workloads.
package layout

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a guest type.
type Kind int

// Guest type kinds.
const (
	KindScalar Kind = iota
	KindPointer
	KindStruct
	KindArray
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindPointer:
		return "pointer"
	case KindStruct:
		return "struct"
	case KindArray:
		return "array"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Type describes a guest (C-like) type. Types are immutable after
// construction; share them freely.
type Type struct {
	Kind   Kind
	Name   string
	size   uint64
	align  uint64
	Elem   *Type   // array element or pointer pointee
	Count  uint64  // array length
	Fields []Field // struct members, in declaration order
}

// Field is a struct member with its computed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset uint64
}

// Size returns the type's size in bytes (including struct padding).
func (t *Type) Size() uint64 { return t.size }

// Align returns the type's alignment in bytes.
func (t *Type) Align() uint64 { return t.align }

// Common scalar types of the RV64 guest ABI.
var (
	Char  = Scalar("char", 1)
	Short = Scalar("short", 2)
	Int   = Scalar("int", 4)
	Long  = Scalar("long", 8)
	// Float sizes only matter for layout; the simulator stores them as
	// raw bit patterns.
	Float  = Scalar("float", 4)
	Double = Scalar("double", 8)
	Void   = Scalar("void", 0)
)

// Scalar constructs a scalar type with natural alignment.
func Scalar(name string, size uint64) *Type {
	a := size
	if a == 0 {
		a = 1
	}
	return &Type{Kind: KindScalar, Name: name, size: size, align: a}
}

// PointerTo constructs a 64-bit pointer type.
func PointerTo(pointee *Type) *Type {
	name := "void*"
	if pointee != nil {
		name = pointee.Name + "*"
	}
	return &Type{Kind: KindPointer, Name: name, size: 8, align: 8, Elem: pointee}
}

// ArrayOf constructs an array type of n elements.
func ArrayOf(elem *Type, n uint64) *Type {
	return &Type{
		Kind:  KindArray,
		Name:  elem.Name + "[" + strconv.FormatUint(n, 10) + "]",
		size:  elem.size * n,
		align: elem.align,
		Elem:  elem,
		Count: n,
	}
}

// StructOf constructs a struct type, assigning field offsets with C layout
// rules (each field aligned to its own alignment; total size rounded up to
// the max alignment).
func StructOf(name string, fields ...Field) *Type {
	t := &Type{Kind: KindStruct, Name: "struct " + name, align: 1}
	var off uint64
	for _, f := range fields {
		fa := f.Type.align
		if fa == 0 {
			fa = 1
		}
		off = alignUp(off, fa)
		f.Offset = off
		t.Fields = append(t.Fields, f)
		off += f.Type.size
		if fa > t.align {
			t.align = fa
		}
	}
	t.size = alignUp(off, t.align)
	return t
}

// F is shorthand for building a Field (the offset is computed by StructOf).
func F(name string, typ *Type) Field { return Field{Name: name, Type: typ} }

// FieldByName returns the named struct member.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

func alignUp(x, a uint64) uint64 {
	if a <= 1 {
		return x
	}
	return (x + a - 1) &^ (a - 1)
}

func (t *Type) String() string {
	if t == nil {
		return "<nil type>"
	}
	if t.Kind == KindStruct {
		var b strings.Builder
		fmt.Fprintf(&b, "%s{", t.Name)
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s %s @%d", f.Name, f.Type.Name, f.Offset)
		}
		b.WriteString("}")
		return b.String()
	}
	return t.Name
}

package layout

import (
	"fmt"
	"testing"
)

func TestScalarSizes(t *testing.T) {
	for _, tc := range []struct {
		typ  *Type
		size uint64
	}{
		{Char, 1}, {Short, 2}, {Int, 4}, {Long, 8}, {Float, 4}, {Double, 8}, {Void, 0},
	} {
		if tc.typ.Size() != tc.size {
			t.Errorf("%s size = %d, want %d", tc.typ.Name, tc.typ.Size(), tc.size)
		}
	}
	if PointerTo(Int).Size() != 8 || PointerTo(nil).Size() != 8 {
		t.Error("pointer size != 8")
	}
}

func TestStructLayoutPadding(t *testing.T) {
	// struct { char c; int i; char d; } — C layout: c@0, i@4, d@8, size 12.
	s := StructOf("P", F("c", Char), F("i", Int), F("d", Char))
	want := []uint64{0, 4, 8}
	for i, f := range s.Fields {
		if f.Offset != want[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, want[i])
		}
	}
	if s.Size() != 12 {
		t.Errorf("size = %d, want 12", s.Size())
	}
	if s.Align() != 4 {
		t.Errorf("align = %d, want 4", s.Align())
	}
}

func TestStructTrailingPadding(t *testing.T) {
	// struct { long l; char c; } — size rounds to 16.
	s := StructOf("Q", F("l", Long), F("c", Char))
	if s.Size() != 16 {
		t.Errorf("size = %d, want 16", s.Size())
	}
}

func TestArrayType(t *testing.T) {
	a := ArrayOf(Int, 10)
	if a.Size() != 40 || a.Align() != 4 || a.Count != 10 {
		t.Errorf("array = size %d align %d count %d", a.Size(), a.Align(), a.Count)
	}
}

func TestPaperStructS(t *testing.T) {
	// Figure 9a: struct S { int v1; struct NestedTy { int v3; int v4; }
	// array[2]; int v5; } — size 24.
	nested := StructOf("NestedTy", F("v3", Int), F("v4", Int))
	s := StructOf("S", F("v1", Int), F("array", ArrayOf(nested, 2)), F("v5", Int))
	if s.Size() != 24 {
		t.Fatalf("sizeof(struct S) = %d, want 24", s.Size())
	}
	f, ok := s.FieldByName("array")
	if !ok || f.Offset != 4 {
		t.Errorf("array offset = %d, want 4", f.Offset)
	}
	if _, ok := s.FieldByName("nope"); ok {
		t.Error("FieldByName found a ghost")
	}
}

func TestListing1StructS(t *testing.T) {
	// Listing 1: struct S { char vulnerable[12]; char sensitive[12]; }.
	s := StructOf("S", F("vulnerable", ArrayOf(Char, 12)), F("sensitive", ArrayOf(Char, 12)))
	if s.Size() != 24 {
		t.Errorf("size = %d, want 24", s.Size())
	}
	f, _ := s.FieldByName("sensitive")
	if f.Offset != 12 {
		t.Errorf("sensitive offset = %d, want 12", f.Offset)
	}
}

func TestStringers(t *testing.T) {
	var nilT *Type
	if nilT.String() == "" {
		t.Error("nil type string empty")
	}
	s := StructOf("X", F("a", Int))
	if s.String() == "" || Int.String() == "" {
		t.Error("empty type strings")
	}
	for _, k := range []Kind{KindScalar, KindPointer, KindStruct, KindArray, Kind(9)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestArrayOfName(t *testing.T) {
	for _, n := range []uint64{0, 1, 8, 99, 100, 4096, 1 << 63} {
		elem := ArrayOf(PointerTo(Char), 3)
		if got, want := ArrayOf(elem, n).Name, fmt.Sprintf("%s[%d]", elem.Name, n); got != want {
			t.Errorf("ArrayOf(%s, %d).Name = %q, want %q", elem.Name, n, got, want)
		}
	}
}

package minic

import (
	"infat/internal/layout"
)

// This file lowers expressions. Address-producing paths track a "layout
// root": the type whose layout table the compiler indexes to compute the
// ifpidx immediate for member derivations (§3.4). For a member chain
// rooted at an object of type T (a local/global of type T, or a
// dereference of a T*), the Sub field of the emitted OpGep is
// IndexOf(path) in T's table.

// addrInfo describes the address currently on top of the stack.
type addrInfo struct {
	typ  *layout.Type // type of the object at the address
	root *layout.Type // layout root for subobject indexing, or nil
	path string       // member path from the root
}

// subIdxFor resolves the ifpidx immediate for the current chain.
func (c *compiler) subIdxFor(root *layout.Type, path string) uint16 {
	if root == nil || path == "" {
		return SubKeep
	}
	tb, ok := c.tables[root]
	if !ok {
		tb, _ = layout.Build(root)
		if c.tables == nil {
			c.tables = map[*layout.Type]*layout.Table{}
		}
		c.tables[root] = tb
	}
	if tb == nil {
		return SubKeep
	}
	if idx, ok := tb.IndexOf(path); ok {
		return idx
	}
	return SubKeep
}

// compileAddr compiles an lvalue, leaving its address (with bounds) on the
// stack.
func (c *compiler) compileAddr(e Expr) (addrInfo, error) {
	switch v := e.(type) {
	case *IdentExpr:
		if idx, ok := c.locals[v.Name]; ok {
			li := c.fn.Locals[idx]
			c.emit(Insn{Op: OpLocal, Imm: int64(idx), Line: int32(v.Line)})
			return addrInfo{typ: li.Type, root: rootFor(li.Type), path: ""}, nil
		}
		if gi, ok := c.globals[v.Name]; ok {
			g := c.out.Globals[gi]
			c.emit(Insn{Op: OpGlobal, Imm: int64(gi), Line: int32(v.Line)})
			return addrInfo{typ: g.Type, root: rootFor(g.Type), path: ""}, nil
		}
		return addrInfo{}, c.errf(v.Line, "undefined identifier %q", v.Name)

	case *UnaryExpr:
		if v.Op != "*" {
			return addrInfo{}, c.errf(v.Line, "expression is not an lvalue")
		}
		t, err := c.compileValue(v.E)
		if err != nil {
			return addrInfo{}, err
		}
		if t.Kind != layout.KindPointer || t.Elem == nil {
			return addrInfo{}, c.errf(v.Line, "dereference of non-pointer %s", t)
		}
		return addrInfo{typ: t.Elem, root: rootFor(t.Elem), path: ""}, nil

	case *IndexExpr:
		return c.compileIndexAddr(v)

	case *MemberExpr:
		return c.compileMemberAddr(v)
	}
	return addrInfo{}, c.errf(e.exprLine(), "expression is not an lvalue")
}

// rootFor returns the layout-root type for an object of type t: structs
// root their own table; arrays of structs root the element's table shared
// across elements (heap-array convention, §3.4); others have none.
func rootFor(t *layout.Type) *layout.Type {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case layout.KindStruct:
		return t
	case layout.KindArray:
		return t // array tables include element structure
	}
	return nil
}

func (c *compiler) compileIndexAddr(v *IndexExpr) (addrInfo, error) {
	// base[i]: base is an array lvalue (stay in its chain) or a pointer
	// rvalue (chain restarts at the pointee).
	baseT, info, err := c.compileArrayOrPointer(v.Base)
	if err != nil {
		return addrInfo{}, err
	}
	var elem *layout.Type
	switch baseT.Kind {
	case layout.KindArray, layout.KindPointer:
		elem = baseT.Elem
	default:
		return addrInfo{}, c.errf(v.Line, "indexing non-array %s", baseT)
	}
	if elem == nil {
		return addrInfo{}, c.errf(v.Line, "indexing void pointer")
	}
	if _, err := c.compileValue(v.Idx); err != nil {
		return addrInfo{}, err
	}
	// Array elements share the array's layout entry: no ifpidx needed
	// in loops over arrays (§3.4), so Sub is keep — unless descending
	// into an array-of-struct element chain, which MemberExpr handles.
	c.emit(Insn{Op: OpGepDyn, Imm: int64(elem.Size()), Sub: SubKeep, Line: int32(v.Line)})
	path := info.path
	if info.root != nil && baseT.Kind == layout.KindArray {
		path += "[]"
	}
	return addrInfo{typ: elem, root: info.root, path: path}, nil
}

// compileArrayOrPointer puts a base address (array lvalue) or pointer
// value on the stack, returning its type and chain info.
func (c *compiler) compileArrayOrPointer(e Expr) (*layout.Type, addrInfo, error) {
	t := c.staticType(e)
	if t != nil && t.Kind == layout.KindArray {
		info, err := c.compileAddr(e)
		if err != nil {
			return nil, addrInfo{}, err
		}
		return info.typ, info, nil
	}
	// Pointer rvalue: chain restarts at the pointee type.
	pt, err := c.compileValue(e)
	if err != nil {
		return nil, addrInfo{}, err
	}
	if pt.Kind != layout.KindPointer {
		return nil, addrInfo{}, c.errf(e.exprLine(), "expected array or pointer, found %s", pt)
	}
	return pt, addrInfo{typ: pt.Elem, root: rootFor(pt.Elem), path: ""}, nil
}

func (c *compiler) compileMemberAddr(v *MemberExpr) (addrInfo, error) {
	var base addrInfo
	if v.Arrow {
		pt, err := c.compileValue(v.Base)
		if err != nil {
			return addrInfo{}, err
		}
		if pt.Kind != layout.KindPointer || pt.Elem == nil || pt.Elem.Kind != layout.KindStruct {
			return addrInfo{}, c.errf(v.Line, "-> on non-struct-pointer %s", pt)
		}
		base = addrInfo{typ: pt.Elem, root: rootFor(pt.Elem), path: ""}
	} else {
		var err error
		base, err = c.compileAddr(v.Base)
		if err != nil {
			return addrInfo{}, err
		}
		if base.typ.Kind != layout.KindStruct {
			return addrInfo{}, c.errf(v.Line, ". on non-struct %s", base.typ)
		}
	}
	f, ok := base.typ.FieldByName(v.Name)
	if !ok {
		return addrInfo{}, c.errf(v.Line, "no member %q in %s", v.Name, base.typ.Name)
	}
	path := joinMember(base.path, v.Name)
	sub := c.subIdxFor(base.root, path)
	// Member derivation: ifpadd with fused ifpidx (Figure 3's pointer-tag
	// update), plus ifpbnd narrowing to the member's static size — the
	// compiler knows the extent, so the access is checked at subobject
	// granularity immediately (§4.1).
	c.emit(Insn{Op: OpGep, Imm: int64(f.Offset), Sub: sub, Line: int32(v.Line)})
	c.emit(Insn{Op: OpBnd, Imm: int64(f.Type.Size()), Line: int32(v.Line)})
	return addrInfo{typ: f.Type, root: base.root, path: path}, nil
}

func joinMember(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// staticType computes an expression's type without emitting code (used to
// decide array-decay paths). Returns nil when unknown.
func (c *compiler) staticType(e Expr) *layout.Type {
	switch v := e.(type) {
	case *NumExpr:
		return layout.Int
	case *StrExpr:
		return c.ptrs.to(layout.Char)
	case *IdentExpr:
		if idx, ok := c.locals[v.Name]; ok {
			return c.fn.Locals[idx].Type
		}
		if gi, ok := c.globals[v.Name]; ok {
			return c.out.Globals[gi].Type
		}
	case *UnaryExpr:
		if v.Op == "*" {
			if t := c.staticType(v.E); t != nil && t.Kind == layout.KindPointer {
				return t.Elem
			}
			return nil
		}
		if v.Op == "&" {
			if t := c.staticType(v.E); t != nil {
				return c.ptrs.to(t)
			}
			return nil
		}
		return layout.Long
	case *IndexExpr:
		if t := c.staticType(v.Base); t != nil && t.Elem != nil {
			return t.Elem
		}
	case *MemberExpr:
		bt := c.staticType(v.Base)
		if bt == nil {
			return nil
		}
		if v.Arrow {
			if bt.Kind != layout.KindPointer {
				return nil
			}
			bt = bt.Elem
		}
		if bt == nil || bt.Kind != layout.KindStruct {
			return nil
		}
		if f, ok := bt.FieldByName(v.Name); ok {
			return f.Type
		}
	case *CastExpr:
		return v.Type
	case *CallExpr:
		if fi, ok := c.out.FuncIdx[v.Name]; ok {
			return c.out.Funcs[fi].Ret
		}
		if v.Name == "malloc" {
			return c.ptrs.to(layout.Void)
		}
		return layout.Long
	case *SizeofExpr:
		return layout.Long
	case *AssignExpr:
		return c.staticType(v.L)
	case *BinaryExpr:
		lt := c.staticType(v.L)
		if lt != nil && (lt.Kind == layout.KindPointer || lt.Kind == layout.KindArray) {
			return lt
		}
		return c.staticType(v.R)
	}
	return nil
}

// compileValue compiles e in a position that consumes its value. A void
// expression (a call to a void function) pushes nothing, so accepting it
// here would underflow the VM's operand stack at runtime — reject it at
// compile time instead (found by FuzzRunC).
func (c *compiler) compileValue(e Expr) (*layout.Type, error) {
	t, err := c.compileExpr(e)
	if err != nil {
		return nil, err
	}
	if t == layout.Void {
		return nil, c.errf(e.exprLine(), "void value used in expression")
	}
	return t, nil
}

// compileExpr compiles an rvalue, leaving (value, bounds) on the stack,
// and returns the expression's type.
func (c *compiler) compileExpr(e Expr) (*layout.Type, error) {
	switch v := e.(type) {
	case *NumExpr:
		c.emit(Insn{Op: OpConst, Imm: v.V, Line: int32(v.Line)})
		return layout.Int, nil

	case *StrExpr:
		idx := len(c.out.Strings)
		c.out.Strings = append(c.out.Strings, v.S)
		c.emit(Insn{Op: OpStr, Imm: int64(idx), Line: int32(v.Line)})
		return c.ptrs.to(layout.Char), nil

	case *IdentExpr:
		info, err := c.compileAddr(v)
		if err != nil {
			return nil, err
		}
		return c.loadFrom(info, v.Line)

	case *UnaryExpr:
		switch v.Op {
		case "&":
			info, err := c.compileAddr(v.E)
			if err != nil {
				return nil, err
			}
			return c.ptrs.to(info.typ), nil
		case "*":
			info, err := c.compileAddr(v)
			if err != nil {
				return nil, err
			}
			return c.loadFrom(info, v.Line)
		case "-":
			if _, err := c.compileValue(v.E); err != nil {
				return nil, err
			}
			c.emit(Insn{Op: OpNeg, Line: int32(v.Line)})
			return layout.Long, nil
		case "!":
			if _, err := c.compileValue(v.E); err != nil {
				return nil, err
			}
			c.emit(Insn{Op: OpNot, Line: int32(v.Line)})
			return layout.Int, nil
		case "~":
			if _, err := c.compileValue(v.E); err != nil {
				return nil, err
			}
			c.emit(Insn{Op: OpBnot, Line: int32(v.Line)})
			return layout.Long, nil
		}
		return nil, c.errf(v.Line, "unknown unary %q", v.Op)

	case *BinaryExpr:
		return c.compileBinary(v)

	case *AssignExpr:
		if err := c.compileAssignTo(v.L, v.R, v.Line); err != nil {
			return nil, err
		}
		// Assignments used as expressions re-read the stored value.
		t, err := c.compileExpr(v.L)
		return t, err

	case *IndexExpr, *MemberExpr:
		info, err := c.compileAddr(v)
		if err != nil {
			return nil, err
		}
		return c.loadFrom(info, e.exprLine())

	case *CallExpr:
		return c.compileCall(v, nil)

	case *CastExpr:
		if call, ok := v.E.(*CallExpr); ok && (call.Name == "malloc" || c.wrappers[call.Name]) {
			return c.compileCall(call, v.Type)
		}
		t, err := c.compileValue(v.E)
		if err != nil {
			return nil, err
		}
		// Integer narrowing casts mask the value; pointer casts are
		// free (the tag travels with the value).
		if v.Type.Kind == layout.KindScalar && v.Type.Size() < 8 && t != v.Type {
			mask := int64(1)<<(8*v.Type.Size()) - 1
			c.emit(Insn{Op: OpConst, Imm: mask, Line: int32(v.Line)})
			c.emit(Insn{Op: OpAnd, Line: int32(v.Line)})
		}
		return v.Type, nil

	case *SizeofExpr:
		c.emit(Insn{Op: OpConst, Imm: int64(v.Type.Size()), Line: int32(v.Line)})
		return layout.Long, nil
	}
	return nil, c.errf(e.exprLine(), "cannot compile expression %T", e)
}

// loadFrom loads a value of the addressed type, decaying arrays to
// pointers (with ifpbnd narrowing to the array extent).
func (c *compiler) loadFrom(info addrInfo, line int) (*layout.Type, error) {
	t := info.typ
	switch t.Kind {
	case layout.KindArray:
		// Decay: the address itself, already narrowed by compileAddr
		// when it was a member; narrow here for whole locals/globals.
		return c.ptrs.to(t.Elem), nil
	case layout.KindPointer:
		c.emit(Insn{Op: OpLoadP, Line: int32(line)})
		return t, nil
	case layout.KindStruct:
		return nil, c.errf(line, "struct loads are not supported; use members")
	default:
		size := t.Size()
		if size == 0 {
			return nil, c.errf(line, "load of void")
		}
		c.emit(Insn{Op: OpLoad, Size: uint8(size), Line: int32(line)})
		return t, nil
	}
}

func (c *compiler) compileAssignTo(lhs Expr, rhs Expr, line int) error {
	t, err := c.compileValue(rhs)
	if err != nil {
		return err
	}
	info, err := c.compileAddr(lhs)
	if err != nil {
		return err
	}
	dst := info.typ
	switch dst.Kind {
	case layout.KindPointer:
		c.emit(Insn{Op: OpStoreP, Line: int32(line)})
	case layout.KindScalar:
		c.emit(Insn{Op: OpStore, Size: uint8(dst.Size()), Line: int32(line)})
	default:
		return c.errf(line, "cannot assign to %s", dst)
	}
	_ = t
	return nil
}

func (c *compiler) compileBinary(v *BinaryExpr) (*layout.Type, error) {
	switch v.Op {
	case "&&", "||":
		// Short circuit with jumps; result is 0/1.
		if _, err := c.compileValue(v.L); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpNot})
		c.emit(Insn{Op: OpNot}) // normalize to 0/1
		c.emit(Insn{Op: OpDup})
		var j int
		if v.Op == "&&" {
			j = c.emit(Insn{Op: OpJz, Line: int32(v.Line)})
		} else {
			c.emit(Insn{Op: OpNot})
			j = c.emit(Insn{Op: OpJz, Line: int32(v.Line)})
		}
		c.emit(Insn{Op: OpPop})
		if _, err := c.compileValue(v.R); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpNot})
		c.emit(Insn{Op: OpNot})
		c.patch(j, c.pc())
		return layout.Int, nil
	}

	lt := c.staticType(v.L)
	rt := c.staticType(v.R)
	lp := lt != nil && (lt.Kind == layout.KindPointer || lt.Kind == layout.KindArray)
	rp := rt != nil && (rt.Kind == layout.KindPointer || rt.Kind == layout.KindArray)

	// Pointer arithmetic: p + n / p - n scale by the element size and
	// lower to ifpadd (OpGepDyn keeps the tag maintained); p - q yields
	// an element count.
	if (v.Op == "+" || v.Op == "-") && lp && !rp {
		baseT, _, err := c.compileArrayOrPointer(v.L)
		if err != nil {
			return nil, err
		}
		elem := baseT.Elem
		if elem == nil {
			return nil, c.errf(v.Line, "arithmetic on void pointer")
		}
		if _, err := c.compileValue(v.R); err != nil {
			return nil, err
		}
		if v.Op == "-" {
			c.emit(Insn{Op: OpNeg, Line: int32(v.Line)})
		}
		c.emit(Insn{Op: OpGepDyn, Imm: int64(elem.Size()), Sub: SubKeep, Line: int32(v.Line)})
		return c.ptrs.to(elem), nil
	}
	if v.Op == "-" && lp && rp {
		if _, err := c.compileValue(v.L); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpAddr})
		if _, err := c.compileValue(v.R); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpAddr})
		c.emit(Insn{Op: OpSub, Line: int32(v.Line)})
		elem := lt.Elem
		if elem != nil && elem.Size() > 1 {
			c.emit(Insn{Op: OpConst, Imm: int64(elem.Size())})
			c.emit(Insn{Op: OpDiv, Line: int32(v.Line)})
		}
		return layout.Long, nil
	}

	if _, err := c.compileValue(v.L); err != nil {
		return nil, err
	}
	if lp {
		c.emit(Insn{Op: OpAddr})
	}
	if _, err := c.compileValue(v.R); err != nil {
		return nil, err
	}
	if rp {
		c.emit(Insn{Op: OpAddr})
	}
	op, ok := binaryOps[v.Op]
	if !ok {
		return nil, c.errf(v.Line, "unknown operator %q", v.Op)
	}
	c.emit(Insn{Op: op, Line: int32(v.Line)})
	return layout.Long, nil
}

func (c *compiler) compileCall(v *CallExpr, castType *layout.Type) (*layout.Type, error) {
	name := v.Name
	if c.wrappers[name] {
		// Allocation wrapper: lower as malloc so the cast-driven type
		// deduction applies; charge the call overhead the wrapper would
		// have cost.
		name = "malloc"
	}
	switch name {
	case "malloc":
		if len(v.Args) != 1 {
			return nil, c.errf(v.Line, "malloc takes one argument")
		}
		if _, err := c.compileValue(v.Args[0]); err != nil {
			return nil, err
		}
		// Allocation-type deduction (§4.2.1): from the enclosing cast,
		// or from a sizeof in the size expression. Without either, the
		// allocation is opaque (no layout table) — the CoreMark/bzip2
		// wrapper case.
		elem := mallocElemType(v.Args[0], castType)
		typeIdx := int64(-1)
		if elem != nil && (elem.Kind == layout.KindStruct || elem.Kind == layout.KindArray) {
			typeIdx = int64(len(c.out.MallocTypes))
			c.out.MallocTypes = append(c.out.MallocTypes, elem)
		}
		c.emit(Insn{Op: OpMalloc, Imm: typeIdx, Line: int32(v.Line)})
		if castType != nil {
			return castType, nil
		}
		return c.ptrs.to(layout.Void), nil
	case "free":
		if len(v.Args) != 1 {
			return nil, c.errf(v.Line, "free takes one argument")
		}
		if _, err := c.compileValue(v.Args[0]); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpFree, Line: int32(v.Line)})
		return layout.Void, nil
	case "memset":
		if len(v.Args) != 3 {
			return nil, c.errf(v.Line, "memset takes three arguments")
		}
		for _, a := range v.Args {
			if _, err := c.compileValue(a); err != nil {
				return nil, err
			}
		}
		c.emit(Insn{Op: OpMemset, Line: int32(v.Line)})
		return layout.Void, nil
	case "memcpy":
		if len(v.Args) != 3 {
			return nil, c.errf(v.Line, "memcpy takes three arguments")
		}
		for _, a := range v.Args {
			if _, err := c.compileValue(a); err != nil {
				return nil, err
			}
		}
		c.emit(Insn{Op: OpMemcpy, Line: int32(v.Line)})
		return layout.Void, nil
	case "print":
		if len(v.Args) != 1 {
			return nil, c.errf(v.Line, "print takes one argument")
		}
		if _, err := c.compileValue(v.Args[0]); err != nil {
			return nil, err
		}
		c.emit(Insn{Op: OpPrint, Line: int32(v.Line)})
		return layout.Void, nil
	}

	fi, ok := c.out.FuncIdx[v.Name]
	if !ok {
		return nil, c.errf(v.Line, "call to undefined function %q", v.Name)
	}
	callee := c.out.Funcs[fi]
	if len(v.Args) != callee.NParams {
		return nil, c.errf(v.Line, "%s expects %d arguments, got %d", v.Name, callee.NParams, len(v.Args))
	}
	for _, a := range v.Args {
		if _, err := c.compileValue(a); err != nil {
			return nil, err
		}
	}
	c.emit(Insn{Op: OpCall, Imm: int64(fi), Sub: uint16(len(v.Args)), Line: int32(v.Line)})
	return callee.Ret, nil
}

// mallocElemType deduces the allocated element type.
func mallocElemType(sizeArg Expr, castType *layout.Type) *layout.Type {
	if castType != nil && castType.Kind == layout.KindPointer && castType.Elem != nil &&
		castType.Elem.Kind != layout.KindScalar {
		return castType.Elem
	}
	switch a := sizeArg.(type) {
	case *SizeofExpr:
		return a.Type
	case *BinaryExpr:
		if a.Op == "*" {
			if s, ok := a.L.(*SizeofExpr); ok {
				return s.Type
			}
			if s, ok := a.R.(*SizeofExpr); ok {
				return s.Type
			}
		}
	}
	if castType != nil && castType.Kind == layout.KindPointer {
		return castType.Elem
	}
	return nil
}

// binaryOps maps each binary operator other than && and || to its opcode.
var binaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"<<": OpShl, ">>": OpShr, "&": OpAnd, "|": OpOr, "^": OpXor,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "==": OpEq, "!=": OpNe,
}

package minic

import (
	"fmt"
	"slices"
	"sync"

	"infat/internal/layout"
)

// Op is an IR opcode. The IR is a stack machine whose values are
// (value, bounds-register) pairs — a software rendering of the IFPR model:
// every pointer value on the stack drags its bounds register along, and
// the explicit IFP operations (OpGep/ifpadd, the Sub field/ifpidx,
// OpBnd/ifpbnd, OpLoadP's promote, OpStoreP's demote) are emitted by the
// instrumentation pass below, exactly where Figure 3 places them.
type Op uint8

// IR opcodes.
const (
	OpConst  Op = iota // push Imm
	OpStr              // push pointer to interned string Imm
	OpLocal            // push address (+bounds) of local slot Imm
	OpGlobal           // push address (+bounds) of global Imm
	OpLoad             // pop addr, push Size-byte scalar
	OpLoadP            // pop addr, push pointer (promote)
	OpStore            // pop addr, pop value, store Size bytes
	OpStoreP           // pop addr, pop pointer value, demote + store
	OpGep              // pop ptr, push ptr+Imm (ifpadd); Sub = ifpidx operand
	OpGepDyn           // pop index, pop ptr, push ptr+index*Imm; Sub = ifpidx
	OpBnd              // narrow top's bounds to [addr, addr+Imm) (ifpbnd)
	OpAddr             // strip tag of top (address-only compares)

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpNeg
	OpNot
	OpBnot

	OpJmp // jump to Imm
	OpJz  // pop; jump to Imm if zero
	OpJnz // pop; jump to Imm if non-zero
	OpDup
	OpPop

	OpCall   // call function Imm with Sub args
	OpRet    // Sub = 1 if a value is returned
	OpMalloc // pop size; Imm = malloc-type index or -1
	OpFree   // pop ptr
	OpMemset // pop n, pop v, pop ptr
	OpMemcpy // pop n, pop src, pop dst
	OpPrint  // pop value -> program output
)

// SubKeep in the Sub field means "no ifpidx update".
const SubKeep uint16 = 0xFFFF

// Insn is one IR instruction.
type Insn struct {
	Op   Op
	Imm  int64
	Sub  uint16
	Size uint8
	Line int32
}

// LocalInfo describes one function-local slot.
type LocalInfo struct {
	Name string
	Type *layout.Type
	// Registered locals get In-Fat Pointer object metadata (aggregates
	// and address-taken scalars — the objects "whose use cannot be
	// statically determined to be safe", §3.1); the rest are raw frame
	// slots.
	Registered bool
}

// Func is a compiled function.
type Func struct {
	Name    string
	Ret     *layout.Type
	NParams int
	Locals  []LocalInfo
	Code    []Insn
}

// Compiled is an instrumented stack-IR program; Lowered derives the
// register bytecode the VM runs from it.
//
// A Compiled is immutable once Compile returns: the VM, NewVM, and every
// other consumer treat all of its fields (and everything reachable from
// them — code, locals, globals, layout types) as read-only. That contract
// is what makes the compile cache sound: one *Compiled may be shared by
// any number of VMs across goroutines without synchronization. Do not
// mutate a Compiled after construction.
type Compiled struct {
	Funcs       []*Func
	FuncIdx     map[string]int
	Globals     []*VarDecl
	Strings     []string
	MallocTypes []*layout.Type
	// Wrappers lists the detected allocation-wrapper functions (the
	// §5.2.1 future-work feature): thin functions whose body just
	// forwards to malloc. Calls to them are treated as malloc calls so
	// the allocation-type deduction (and therefore layout tables and
	// subobject narrowing) still works — the paper's CoreMark/bzip2
	// limitation, lifted.
	Wrappers []string

	// Lowered-form cache (see lower.go). The sync.Once carries its own
	// synchronization, so lazily lowering does not break the read-only
	// sharing contract above: Do elects one lowering, and every reader
	// observes its result — the same immutable *Lowered, or the same
	// error.
	lowerOnce sync.Once
	lowered   *Lowered
	lowerErr  error
}

// frontBufs is a front-end stage's working memory, reused from program to
// program through bufPool: the parser's tokens, the compiler's code and
// locals, and the lowerer's per-pc tables. Every stage copies its output
// out at its exact size, so nothing a program keeps aliases a buffer.
type frontBufs struct {
	toks   []Token
	code   []Insn
	decls  []*VarDecl
	locals []LocalInfo
	lower  lowering
}

var bufPool = sync.Pool{New: func() any { return new(frontBufs) }}

// maxPooled caps the elements a pooled buffer keeps, so one unusually
// large program does not pin its buffers in the pool.
const maxPooled = 1 << 16

func getBufs() *frontBufs { return bufPool.Get().(*frontBufs) }

// putBufs returns s to the pool with its buffers emptied, dropping the
// references they hold and any buffer grown past maxPooled.
func putBufs(s *frontBufs) {
	s.toks = reuse(s.toks)
	s.code = reuse(s.code)
	s.decls = reuse(s.decls)
	s.locals = reuse(s.locals)
	s.lower.reset()
	bufPool.Put(s)
}

// reuse empties b for the next program: cleared and truncated, or nil
// when it has grown past maxPooled.
func reuse[T any](b []T) []T {
	if cap(b) > maxPooled {
		return nil
	}
	clear(b)
	return b[:0]
}

// CompileError is a semantic error.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string { return fmt.Sprintf("minic:%d: %s", e.Line, e.Msg) }

// Compile lowers a parsed program, running the In-Fat Pointer
// instrumentation pass.
func Compile(prog *Program) (*Compiled, error) {
	s := getBufs()
	defer putBufs(s)
	c := &compiler{
		out: &Compiled{
			Funcs:   make([]*Func, len(prog.Funcs)),
			FuncIdx: make(map[string]int, len(prog.Funcs)),
			Globals: prog.Globals,
		},
		s: s,
	}
	funcs := make([]Func, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		if _, dup := c.out.FuncIdx[fn.Name]; dup {
			return nil, &CompileError{fn.Line, fmt.Sprintf("function %q redefined", fn.Name)}
		}
		c.out.FuncIdx[fn.Name] = i
		funcs[i] = Func{Name: fn.Name, Ret: fn.Ret, NParams: len(fn.Params)}
		c.out.Funcs[i] = &funcs[i]
	}
	if len(prog.Globals) > 0 {
		c.globals = make(map[string]int, len(prog.Globals))
	}
	for i, g := range prog.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return nil, &CompileError{g.Line, fmt.Sprintf("global %q redefined", g.Name)}
		}
		c.globals[g.Name] = i
	}
	for _, fn := range prog.Funcs {
		if isAllocWrapper(fn) {
			if c.wrappers == nil {
				c.wrappers = map[string]bool{}
			}
			c.wrappers[fn.Name] = true
			c.out.Wrappers = append(c.out.Wrappers, fn.Name)
		}
	}
	for i, fn := range prog.Funcs {
		if err := c.compileFunc(fn, c.out.Funcs[i]); err != nil {
			return nil, err
		}
	}
	if _, ok := c.out.FuncIdx["main"]; !ok {
		return nil, &CompileError{1, "no main function"}
	}
	// Global initializers form the data segment NewVM stores: integer
	// literals on scalar and pointer globals only.
	for _, g := range prog.Globals {
		if g.Init == nil {
			continue
		}
		if _, ok := g.Init.(*NumExpr); !ok {
			return nil, &CompileError{g.Line, "global initializers must be integer literals"}
		}
		if g.Type.Size() > 8 {
			return nil, &CompileError{g.Line, "cannot initialize aggregate globals"}
		}
	}
	return c.out, nil
}

type compiler struct {
	out      *Compiled
	s        *frontBufs
	globals  map[string]int  // nil when the program has no globals
	wrappers map[string]bool // allocation-wrapper functions; nil when none

	// The pointer types and the layout table of each layout root (nil
	// when the root does not build) made so far, each made once.
	ptrs   pointerTypes
	tables map[*layout.Type]*layout.Table

	// per-function state; the function's code is built in s.code
	fn          *Func
	locals      map[string]int
	breaks      []int // patch sites for break
	conts       []int // patch sites for continue
	loopTops    []int
	switchDepth int
}

// pointerTypes makes layout.PointerTo(t) once per pointee t; nil until
// the first. Types are immutable, and nothing compares pointer types by
// identity, so sharing one is invisible.
type pointerTypes map[*layout.Type]*layout.Type

func (m *pointerTypes) to(t *layout.Type) *layout.Type {
	if p, ok := (*m)[t]; ok {
		return p
	}
	if *m == nil {
		*m = pointerTypes{}
	}
	p := layout.PointerTo(t)
	(*m)[t] = p
	return p
}

// isAllocWrapper recognizes thin allocation wrappers: one scalar
// parameter, and a body that is exactly `return malloc(param);` (possibly
// through a pointer cast). Calls to such functions are lowered as malloc
// calls, so the call site's cast still drives allocation-type deduction.
func isAllocWrapper(fn *FuncDecl) bool {
	if len(fn.Params) != 1 || fn.Body == nil || len(fn.Body.Stmts) != 1 {
		return false
	}
	if fn.Ret == nil || fn.Ret.Kind != layout.KindPointer {
		return false
	}
	ret, ok := fn.Body.Stmts[0].(*ReturnStmt)
	if !ok || ret.E == nil {
		return false
	}
	e := ret.E
	if cast, ok := e.(*CastExpr); ok {
		e = cast.E
	}
	call, ok := e.(*CallExpr)
	if !ok || call.Name != "malloc" || len(call.Args) != 1 {
		return false
	}
	arg, ok := call.Args[0].(*IdentExpr)
	return ok && arg.Name == fn.Params[0].Name
}

func (c *compiler) emit(i Insn) int {
	c.s.code = append(c.s.code, i)
	return len(c.s.code) - 1
}

// pc is the index the next emitted instruction gets.
func (c *compiler) pc() int { return len(c.s.code) }

// patch points the jump at site to target.
func (c *compiler) patch(site, target int) { c.s.code[site].Imm = int64(target) }

func (c *compiler) errf(line int, format string, args ...interface{}) error {
	return &CompileError{line, fmt.Sprintf(format, args...)}
}

// needsRegistration decides which locals get object metadata: aggregates
// always; scalars only when address-taken (found by scan).
func needsRegistration(t *layout.Type, addressTaken bool) bool {
	return t.Kind == layout.KindStruct || t.Kind == layout.KindArray || addressTaken
}

func (c *compiler) compileFunc(fn *FuncDecl, out *Func) error {
	c.fn = out
	var taken addressTaken
	taken.stmt(fn.Body)

	// Parameters, then locals in source order; the first duplicate is
	// the error.
	c.s.decls = collectLocals(fn.Body, append(c.s.decls[:0], fn.Params...))
	c.locals = make(map[string]int, len(c.s.decls))
	c.s.locals = c.s.locals[:0]
	for _, d := range c.s.decls {
		if _, dup := c.locals[d.Name]; dup {
			return c.errf(d.Line, "local %q redefined", d.Name)
		}
		c.locals[d.Name] = len(c.s.locals)
		c.s.locals = append(c.s.locals, LocalInfo{
			Name:       d.Name,
			Type:       d.Type,
			Registered: needsRegistration(d.Type, taken[d.Name]),
		})
	}
	if len(c.s.locals) > 0 {
		out.Locals = slices.Clone(c.s.locals)
	}

	c.s.code = c.s.code[:0]
	if err := c.compileBlock(fn.Body); err != nil {
		return err
	}
	c.emit(Insn{Op: OpRet, Sub: 0, Line: int32(fn.Line)})
	out.Code = slices.Clone(c.s.code)
	return nil
}

// addressTaken is the set of identifiers whose address escapes via
// unary &; nil until the first one.
type addressTaken map[string]bool

func (taken *addressTaken) expr(e Expr) {
	switch v := e.(type) {
	case *UnaryExpr:
		if v.Op == "&" {
			if id, ok := v.E.(*IdentExpr); ok {
				if *taken == nil {
					*taken = addressTaken{}
				}
				(*taken)[id.Name] = true
			}
		}
		taken.expr(v.E)
	case *BinaryExpr:
		taken.expr(v.L)
		taken.expr(v.R)
	case *AssignExpr:
		taken.expr(v.L)
		taken.expr(v.R)
	case *IndexExpr:
		taken.expr(v.Base)
		taken.expr(v.Idx)
	case *MemberExpr:
		taken.expr(v.Base)
	case *CallExpr:
		for _, a := range v.Args {
			taken.expr(a)
		}
	case *CastExpr:
		taken.expr(v.E)
	}
}

func (taken *addressTaken) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		for _, st := range v.Stmts {
			taken.stmt(st)
		}
	case *DeclStmt:
		if v.Decl.Init != nil {
			taken.expr(v.Decl.Init)
		}
	case *ExprStmt:
		taken.expr(v.E)
	case *IfStmt:
		taken.expr(v.Cond)
		taken.stmt(v.Then)
		if v.Else != nil {
			taken.stmt(v.Else)
		}
	case *WhileStmt:
		taken.expr(v.Cond)
		taken.stmt(v.Body)
	case *DoWhileStmt:
		taken.stmt(v.Body)
		taken.expr(v.Cond)
	case *SwitchStmt:
		taken.expr(v.Scrut)
		for _, cs := range v.Cases {
			for _, st := range cs.Body {
				taken.stmt(st)
			}
		}
		for _, st := range v.Default {
			taken.stmt(st)
		}
	case *ForStmt:
		if v.Init != nil {
			taken.stmt(v.Init)
		}
		if v.Cond != nil {
			taken.expr(v.Cond)
		}
		if v.Post != nil {
			taken.expr(v.Post)
		}
		taken.stmt(v.Body)
	case *ReturnStmt:
		if v.E != nil {
			taken.expr(v.E)
		}
	}
}

// collectLocals appends s's local declarations to decls, in source order.
func collectLocals(s Stmt, decls []*VarDecl) []*VarDecl {
	switch v := s.(type) {
	case *Block:
		for _, st := range v.Stmts {
			decls = collectLocals(st, decls)
		}
	case *DeclStmt:
		decls = append(decls, v.Decl)
	case *IfStmt:
		decls = collectLocals(v.Then, decls)
		if v.Else != nil {
			decls = collectLocals(v.Else, decls)
		}
	case *WhileStmt:
		decls = collectLocals(v.Body, decls)
	case *DoWhileStmt:
		decls = collectLocals(v.Body, decls)
	case *SwitchStmt:
		for _, cs := range v.Cases {
			for _, st := range cs.Body {
				decls = collectLocals(st, decls)
			}
		}
		for _, st := range v.Default {
			decls = collectLocals(st, decls)
		}
	case *ForStmt:
		if v.Init != nil {
			decls = collectLocals(v.Init, decls)
		}
		decls = collectLocals(v.Body, decls)
	}
	return decls
}

// --- statements ---

func (c *compiler) compileBlock(b *Block) error {
	for _, s := range b.Stmts {
		if err := c.compileStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) compileStmt(s Stmt) error {
	switch v := s.(type) {
	case *Block:
		return c.compileBlock(v)
	case *DeclStmt:
		if v.Decl.Init == nil {
			return nil
		}
		return c.compileAssignTo(&IdentExpr{Name: v.Decl.Name, Line: v.Decl.Line}, v.Decl.Init, v.Decl.Line)
	case *ExprStmt:
		// Statement-position assignments store without re-reading.
		if asg, ok := v.E.(*AssignExpr); ok {
			return c.compileAssignTo(asg.L, asg.R, asg.Line)
		}
		t, err := c.compileExpr(v.E)
		if err != nil {
			return err
		}
		if t != layout.Void {
			c.emit(Insn{Op: OpPop, Line: int32(v.Line)})
		}
		return nil
	case *IfStmt:
		if _, err := c.compileValue(v.Cond); err != nil {
			return err
		}
		jz := c.emit(Insn{Op: OpJz})
		if err := c.compileStmt(v.Then); err != nil {
			return err
		}
		if v.Else != nil {
			jmp := c.emit(Insn{Op: OpJmp})
			c.patch(jz, c.pc())
			if err := c.compileStmt(v.Else); err != nil {
				return err
			}
			c.patch(jmp, c.pc())
		} else {
			c.patch(jz, c.pc())
		}
		return nil
	case *WhileStmt:
		top := c.pc()
		if _, err := c.compileValue(v.Cond); err != nil {
			return err
		}
		jz := c.emit(Insn{Op: OpJz})
		c.pushLoop(top)
		if err := c.compileStmt(v.Body); err != nil {
			return err
		}
		c.emit(Insn{Op: OpJmp, Imm: int64(top)})
		c.patch(jz, c.pc())
		c.popLoop(c.pc(), top)
		return nil
	case *DoWhileStmt:
		top := c.pc()
		c.pushLoop(top)
		if err := c.compileStmt(v.Body); err != nil {
			return err
		}
		condAt := c.pc()
		if _, err := c.compileValue(v.Cond); err != nil {
			return err
		}
		c.emit(Insn{Op: OpJnz, Imm: int64(top)})
		c.popLoop(c.pc(), condAt)
		return nil
	case *SwitchStmt:
		return c.compileSwitch(v)
	case *ForStmt:
		if v.Init != nil {
			if err := c.compileStmt(v.Init); err != nil {
				return err
			}
		}
		top := c.pc()
		jz := -1
		if v.Cond != nil {
			if _, err := c.compileValue(v.Cond); err != nil {
				return err
			}
			jz = c.emit(Insn{Op: OpJz})
		}
		c.pushLoop(-1) // continue target patched to post
		if err := c.compileStmt(v.Body); err != nil {
			return err
		}
		post := c.pc()
		if v.Post != nil {
			if asg, ok := v.Post.(*AssignExpr); ok {
				if err := c.compileAssignTo(asg.L, asg.R, asg.Line); err != nil {
					return err
				}
			} else {
				t, err := c.compileExpr(v.Post)
				if err != nil {
					return err
				}
				if t != layout.Void {
					c.emit(Insn{Op: OpPop})
				}
			}
		}
		c.emit(Insn{Op: OpJmp, Imm: int64(top)})
		end := c.pc()
		if jz >= 0 {
			c.patch(jz, end)
		}
		c.popLoop(end, post)
		return nil
	case *ReturnStmt:
		if v.E != nil {
			if _, err := c.compileValue(v.E); err != nil {
				return err
			}
			c.emit(Insn{Op: OpRet, Sub: 1, Line: int32(v.Line)})
		} else {
			c.emit(Insn{Op: OpRet, Line: int32(v.Line)})
		}
		return nil
	case *BreakStmt:
		if len(c.loopTops) == 0 && c.switchDepth == 0 {
			return c.errf(v.Line, "break outside loop or switch")
		}
		c.breaks = append(c.breaks, c.emit(Insn{Op: OpJmp, Imm: -1, Line: int32(v.Line)}))
		return nil
	case *ContinueStmt:
		if len(c.loopTops) == 0 {
			return c.errf(v.Line, "continue outside loop")
		}
		c.conts = append(c.conts, c.emit(Insn{Op: OpJmp, Imm: -2, Line: int32(v.Line)}))
		return nil
	}
	return fmt.Errorf("minic: unknown statement %T", s)
}

// pushLoop/popLoop manage break/continue patch lists per loop nest.
func (c *compiler) pushLoop(top int) {
	c.loopTops = append(c.loopTops, len(c.breaks)<<32|len(c.conts))
}

func (c *compiler) popLoop(breakTarget, contTarget int) {
	marks := c.loopTops[len(c.loopTops)-1]
	c.loopTops = c.loopTops[:len(c.loopTops)-1]
	bMark, cMark := marks>>32, marks&0xFFFFFFFF
	for _, site := range c.breaks[bMark:] {
		c.patch(site, breakTarget)
	}
	c.breaks = c.breaks[:bMark]
	for _, site := range c.conts[cMark:] {
		c.patch(site, contTarget)
	}
	c.conts = c.conts[:cMark]
}

// compileSwitch lowers a switch with C fallthrough semantics: a dispatch
// chain comparing the scrutinee against each label, then the case bodies
// laid out sequentially. `break` inside the switch jumps past the end;
// `continue` binds to the enclosing loop, so only the break list is
// scoped here.
func (c *compiler) compileSwitch(v *SwitchStmt) error {
	if _, err := c.compileValue(v.Scrut); err != nil {
		return err
	}
	// Dispatch chain: the scrutinee stays on the stack while each label
	// is tested; matching jumps go to a per-case stub that pops the
	// scrutinee before falling into the (fallthrough-shared) body.
	caseJumps := make([]int, len(v.Cases))
	for i, cs := range v.Cases {
		c.emit(Insn{Op: OpDup, Line: int32(v.Line)})
		c.emit(Insn{Op: OpConst, Imm: cs.Value})
		c.emit(Insn{Op: OpEq})
		caseJumps[i] = c.emit(Insn{Op: OpJnz})
	}
	c.emit(Insn{Op: OpPop}) // no label matched: drop the scrutinee
	defaultJump := c.emit(Insn{Op: OpJmp})

	// Entry stubs: pop the scrutinee copy, then jump to the body.
	stubJumps := make([]int, len(v.Cases))
	for i := range v.Cases {
		c.patch(caseJumps[i], c.pc())
		c.emit(Insn{Op: OpPop})
		stubJumps[i] = c.emit(Insn{Op: OpJmp})
	}

	bMark := len(c.breaks)
	c.switchDepth++

	// Case bodies, laid out sequentially so fallthrough is free.
	for i, cs := range v.Cases {
		c.patch(stubJumps[i], c.pc())
		for _, st := range cs.Body {
			if err := c.compileStmt(st); err != nil {
				return err
			}
		}
	}
	defaultAt := c.pc()
	for _, st := range v.Default {
		if err := c.compileStmt(st); err != nil {
			return err
		}
	}
	c.patch(defaultJump, defaultAt)

	end := c.pc()
	for _, site := range c.breaks[bMark:] {
		c.patch(site, end)
	}
	c.breaks = c.breaks[:bMark]
	c.switchDepth--
	return nil
}

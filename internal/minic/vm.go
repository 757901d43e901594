package minic

import (
	"fmt"

	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// VM executes compiled MiniC on a Runtime. Every IR step maps to the
// instructions the instrumented binary would execute: loads and stores go
// through the machine's checked paths, OpLoadP promotes, OpGep is ifpadd
// (+ ifpidx when Sub is set), OpBnd is ifpbnd, and local/global objects
// are registered through the runtime exactly as Listing 2 shows.
//
// The interpreter is allocation-free in steady state: all guest function
// calls share one operand-stack arena and one local-slot arena on the VM
// (each growing once to the program's high-water mark and then reused),
// and per-call frame state lives in a pooled frame stack instead of
// per-call slices and closures. A VM treats its *Compiled as read-only —
// the property that lets the compile cache share one compilation across
// many VMs, including concurrent ones.
type VM struct {
	R   *rt.Runtime
	C   *Compiled
	Out []int64 // values print()ed by the program

	lowered *Lowered // C's register bytecode, the form Run executes

	globals  []rt.Obj
	strings  []rt.Obj
	heapObjs []rt.Obj // live heap allocations, for free(ptr)

	// stack is the shared operand arena: each frame's register window
	// lives above its opBase (the floor the test-only stack walker
	// bounds-checks its pushes and pops against) instead of in a fresh
	// []value per call.
	stack  []value
	opBase int
	// slots is the shared local-slot arena; each frame owns
	// slots[slotBase:] and truncates back on return.
	slots []rt.Obj
	// frames is the pooled call stack of unwind records.
	frames []frame

	steps    uint64
	maxSteps uint64
}

// value is one eval-stack entry: a 64-bit value with its bounds register.
type value struct {
	v uint64
	b machine.BoundsReg
}

// frame is one activation's unwind record. The interpreter keeps the hot
// per-call state (slot base, code, pc) in locals; the frame exists so
// unwindTop can restore every VM invariant on any exit path, including a
// panic recovered at the RunC boundary.
type frame struct {
	slotBase int    // vm.slots high-water mark at entry
	opBase   int    // caller's operand-stack floor, restored on exit
	mark     uint64 // runtime stack mark at entry
	// framed is set once every local is allocated and registered; only
	// then does unwinding deregister metadata (matching the paper's
	// IFP_Deregister placement: a frame that failed mid-setup releases
	// its stack memory but never ran the registration epilogue).
	framed bool
}

// maxCallDepth bounds guest call depth. Each guest call is one callReg
// activation on the Go stack: an 800-byte frame plus 40 bytes of
// arguments and return address (go build -gcflags=-S, amd64; the
// test-only walker's frame is 784 bytes). 1<<16 frames take about 55 MB
// of goroutine stack, far below Go's 1 GB limit, past which unbounded
// guest recursion would kill the whole process.
const maxCallDepth = 1 << 16

// callDepthTrap is the error of a guest call at line that would pass
// maxCallDepth: a resource trap of the allocator class, since the
// guest's frames are what ran out.
func callDepthTrap(line int) error {
	return &RunError{line, &machine.Trap{Kind: machine.TrapAlloc,
		Msg: fmt.Sprintf("call depth exceeds %d frames", maxCallDepth)}}
}

// RunError wraps a trap or fault with a source line.
type RunError struct {
	Line int
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("minic:%d: %v", e.Line, e.Err) }

func (e *RunError) Unwrap() error { return e.Err }

// NewVM prepares a VM: it registers globals (the §4.2.2 "getptr"
// instrumentation, done eagerly) and interns string literals as
// read-only char-array objects. The Compiled program is shared, never
// mutated: NewVM only reads it, so one compilation (e.g. from the
// compile cache) can back any number of VMs, concurrently. A program
// that does not lower is refused with the lowering error.
func NewVM(c *Compiled, r *rt.Runtime) (*VM, error) {
	l, err := c.Lowered()
	if err != nil {
		return nil, err
	}
	vm := &VM{R: r, C: c, lowered: l, maxSteps: 50_000_000}
	if n := len(c.Globals); n > 0 {
		vm.globals = make([]rt.Obj, 0, n)
	}
	if n := len(c.Strings); n > 0 {
		vm.strings = make([]rt.Obj, 0, n)
	}
	for _, g := range c.Globals {
		var obj rt.Obj
		var err error
		if g.Type.Kind == layout.KindScalar || g.Type.Kind == layout.KindPointer {
			obj, err = r.RegisterGlobalBytes(g.Type.Size())
		} else {
			obj, err = r.RegisterGlobal(g.Type)
		}
		if err != nil {
			return nil, err
		}
		vm.globals = append(vm.globals, obj)
	}
	for _, s := range c.Strings {
		obj, err := r.RegisterGlobal(layout.ArrayOf(layout.Char, uint64(len(s)+1)))
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(s); i++ {
			if err := r.M.Mem.StoreN(obj.Base()+uint64(i), uint64(s[i]), 1); err != nil {
				return nil, err
			}
		}
		vm.strings = append(vm.strings, obj)
	}
	// Constant global initializers (data segment). Compile admits only
	// integer literals on scalar and pointer globals.
	for i, g := range c.Globals {
		if g.Init == nil {
			continue
		}
		if err := r.M.Mem.StoreN(vm.globals[i].Base(), uint64(g.Init.(*NumExpr).V), int(g.Type.Size())); err != nil {
			return nil, err
		}
	}
	return vm, nil
}

// Run executes main on the register dispatch loop over the lowered
// bytecode and returns its exit value. Output, exit code, machine
// counters, trap lines and teardown order are those of the stack IR
// executed step by step, pinned against a test-only stack walker by the
// dispatch-equivalence suite and FuzzDispatchEquivalence.
func (vm *VM) Run() (int64, error) {
	ret, err := vm.callReg(vm.C.FuncIdx["main"], len(vm.stack), 0)
	if err != nil {
		return 0, err
	}
	return int64(ret.v), nil
}

// unwindTop tears down the newest frame on any exit from callReg —
// return, error, or panic. Teardown order matches Listing 2's epilogue:
// metadata cleanup first (IFP_Deregister for every slot, a no-op for the
// legacy pointers of unregistered ones, skipped when frame setup never
// completed), then the stack pop. Errors during unwind after a trap are
// moot; marks are VM-managed.
func (vm *VM) unwindTop() {
	n := len(vm.frames) - 1
	fr := vm.frames[n]
	vm.frames = vm.frames[:n]
	if fr.framed {
		for _, o := range vm.slots[fr.slotBase:] {
			_ = vm.R.DeallocLocal(o)
		}
	}
	vm.slots = vm.slots[:fr.slotBase]
	vm.opBase = fr.opBase
	_ = vm.R.StackRelease(fr.mark)
}

// ensureStack grows the shared operand arena to hold n values without
// ever shrinking it (deeper frames may have raised the high-water mark;
// the caller's register window must stay sliceable). New cells are left
// as-is: the depth analysis proves every register is written before read,
// so no zeroing is needed.
func (vm *VM) ensureStack(n int) {
	if n <= len(vm.stack) {
		return
	}
	if n <= cap(vm.stack) {
		vm.stack = vm.stack[:n]
		return
	}
	ns := make([]value, n, 2*n)
	copy(ns, vm.stack)
	vm.stack = ns
}

// callReg is the register dispatch loop over the lowered bytecode. It
// runs function fnIdx, whose nargs arguments the caller left at
// vm.stack[argBase:argBase+nargs]. Operands live in a per-frame register
// window overlaid on the shared operand arena (register k of this frame
// is vm.stack[rb+k]), call arguments are passed by window overlap exactly
// where the stack discipline puts them, and the fuel budget is charged
// once per extended basic block at its LBlock header instead of per step.
//
// Every arm retires the same rt/machine calls in the same order as its
// stack-IR components, which is what keeps machine.Counters identical to
// a step-by-step execution of the stack IR.
func (vm *VM) callReg(fnIdx, argBase, nargs int) (value, error) {
	fn := vm.C.Funcs[fnIdx]
	lf := vm.lowered.Funcs[fnIdx]
	slotBase := len(vm.slots)
	vm.frames = append(vm.frames, frame{
		slotBase: slotBase,
		opBase:   vm.opBase,
		mark:     vm.R.StackMark(),
	})
	myFrame := len(vm.frames) - 1
	defer vm.unwindTop()
	rb := argBase + nargs
	vm.opBase = rb

	// Allocate and register locals (IFP_Register for aggregates and
	// address-taken scalars).
	for _, li := range fn.Locals {
		var obj rt.Obj
		var err error
		if li.Registered {
			if li.Type.Kind == layout.KindScalar || li.Type.Kind == layout.KindPointer {
				obj, err = vm.R.AllocLocalBytes(li.Type.Size())
			} else {
				obj, err = vm.R.AllocLocal(li.Type)
			}
		} else {
			var addr uint64
			addr, err = vm.R.StackRaw(li.Type.Size())
			obj = rt.Obj{P: addr, Size: li.Type.Size()}
		}
		if err != nil {
			return value{}, err
		}
		vm.slots = append(vm.slots, obj)
	}
	vm.frames[myFrame].framed = true

	// Bind arguments (bounds passed in registers, §4.1.2: no promote for
	// pointer arguments). The caller left them in its registers at
	// argBase — the same cells the stack discipline would use.
	for i := 0; i < nargs; i++ {
		a := vm.stack[argBase+i]
		li := fn.Locals[i]
		slot := vm.slots[slotBase+i]
		if li.Type.Kind == layout.KindPointer {
			if err := vm.R.StorePtr(slot.P, slot.B, a.v, a.b); err != nil {
				return value{}, err
			}
		} else {
			if err := vm.R.Store(slot.P, a.v, int(li.Type.Size()), slot.B); err != nil {
				return value{}, err
			}
		}
	}

	vm.ensureStack(rb + lf.MaxRegs)
	regs := vm.stack[rb : rb+lf.MaxRegs]
	code := lf.Code
	pc := 0
	for {
		if pc < 0 || pc >= len(code) {
			return value{}, fmt.Errorf("minic: pc %d out of range in %s", pc, fn.Name)
		}
		in := &code[pc]
		pc++
		switch in.Op {
		case LBlock:
			// Amortized accounting: the whole block's steps are charged
			// and the fuel budget checked once, here. A taken branch can
			// leave part of the charge unexecuted, so a fuel-limited run
			// overshoots its budget by at most the current block — the
			// one sanctioned divergence from the per-step reference.
			vm.steps += uint64(in.Imm)
			if err := vm.R.M.CheckFuel(); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			if vm.steps > vm.maxSteps {
				return value{}, fmt.Errorf("minic: step budget exhausted (infinite loop?)")
			}
		case LConst:
			vm.R.M.Tick(1)
			regs[in.A] = value{v: uint64(in.Imm)}
		case LStr:
			vm.R.M.Tick(1)
			s := vm.strings[in.Imm]
			regs[in.A] = value{v: s.P, b: s.B}
		case LLocal:
			vm.R.M.Tick(1)
			s := vm.slots[slotBase+int(in.Imm)]
			regs[in.A] = value{v: s.P, b: s.B}
		case LGlobal:
			vm.R.M.Tick(1)
			g := vm.globals[in.Imm]
			regs[in.A] = value{v: g.P, b: g.B}
		case LLoad:
			a := regs[in.A]
			v, err := vm.R.Load(a.v, int(in.Size), a.b)
			if err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			regs[in.A] = value{v: signExtend(v, int(in.Size))}
		case LLoadP:
			a := regs[in.A]
			p, b, err := vm.R.LoadPtr(a.v, a.b)
			if err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			regs[in.A] = value{v: p, b: b}
		case LStore:
			a := regs[in.A]
			v := regs[in.B]
			if err := vm.R.Store(a.v, v.v, int(in.Size), a.b); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
		case LStoreP:
			a := regs[in.A]
			v := regs[in.B]
			if err := vm.R.StorePtr(a.v, a.b, v.v, v.b); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
		case LGep:
			a := regs[in.A]
			regs[in.A] = value{v: vm.R.GEP(a.v, in.Imm, a.b), b: a.b}
		case LGepDyn:
			a := regs[in.A]
			idx := regs[in.C]
			vm.R.M.Tick(1) // index scaling multiply
			p := vm.R.GEP(a.v, int64(idx.v)*in.Imm, a.b)
			if in.Sub != SubKeep {
				p = vm.R.SetSub(p, in.Sub)
			}
			regs[in.A] = value{v: p, b: a.b}
		case LBnd:
			a := regs[in.A]
			regs[in.A] = value{v: a.v, b: vm.R.Bnd(a.v, uint64(in.Imm))}
		case LAddr:
			a := regs[in.A]
			vm.R.M.Tick(1)
			regs[in.A] = value{v: a.v & (1<<48 - 1)}
		case LMov:
			vm.R.M.Tick(1)
			regs[in.A] = regs[in.B]
		case LAlu:
			lv := regs[in.A]
			rv := regs[in.C]
			vm.R.M.Tick(1)
			res, err := alu(Op(in.Sub), lv.v, rv.v)
			if err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			regs[in.A] = value{v: res}
		case LNeg:
			a := regs[in.A]
			vm.R.M.Tick(1)
			regs[in.A] = value{v: uint64(-int64(a.v))}
		case LNot:
			a := regs[in.A]
			vm.R.M.Tick(1)
			if a.v == 0 {
				regs[in.A] = value{v: 1}
			} else {
				regs[in.A] = value{v: 0}
			}
		case LBnot:
			a := regs[in.A]
			vm.R.M.Tick(1)
			regs[in.A] = value{v: ^a.v}
		case LJmp:
			vm.R.M.Tick(1)
			pc = int(in.Imm)
		case LJz:
			vm.R.M.Tick(1)
			if regs[in.A].v == 0 {
				pc = int(in.Imm)
			}
		case LJnz:
			vm.R.M.Tick(1)
			if regs[in.A].v != 0 {
				pc = int(in.Imm)
			}
		case LCall:
			vm.R.M.Tick(2) // call/ret overhead
			if len(vm.frames) >= maxCallDepth {
				return value{}, callDepthTrap(int(in.Line))
			}
			ret, err := vm.callReg(int(in.Imm), rb+int(in.A), int(in.Sub))
			if err != nil {
				return value{}, err
			}
			// The callee may have grown (and reallocated) the shared
			// arena; re-derive this frame's window before touching it.
			regs = vm.stack[rb : rb+lf.MaxRegs]
			if vm.C.Funcs[in.Imm].Ret != layout.Void {
				regs[in.A] = ret
			}
		case LRet:
			if in.Sub == 1 {
				return regs[in.A], nil
			}
			return value{}, nil
		case LMalloc:
			size := regs[in.A]
			var obj rt.Obj
			var err error
			if in.Imm >= 0 {
				t := vm.C.MallocTypes[in.Imm]
				n := size.v / t.Size()
				if n == 0 {
					n = 1
				}
				obj, err = vm.R.Malloc(t, n)
			} else {
				obj, err = vm.R.MallocBytes(size.v)
			}
			if err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			vm.heapObjs = append(vm.heapObjs, obj)
			regs[in.A] = value{v: obj.P, b: obj.B}
		case LFree:
			p := regs[in.A]
			if err := vm.freeByPtr(p.v); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
		case LMemset:
			p := regs[in.A]
			v := regs[in.B]
			n := regs[in.C]
			if err := vm.R.Memset(p.v, byte(v.v), n.v, p.b); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
		case LMemcpy:
			dst := regs[in.A]
			src := regs[in.B]
			n := regs[in.C]
			if err := vm.R.Memcpy(dst.v, dst.b, src.v, src.b, n.v); err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
		case LPrint:
			v := regs[in.A]
			vm.R.M.Tick(1)
			vm.Out = append(vm.Out, int64(v.v))

		// Fused superinstructions. Component machine ops retire in
		// source order; only the intermediate stack traffic is gone.
		case LGepIdx:
			// ifpadd + ifpidx (member derivation with tag update).
			a := regs[in.A]
			p := vm.R.GEP(a.v, in.Imm, a.b)
			regs[in.A] = value{v: vm.R.SetSub(p, in.Sub), b: a.b}
		case LGepIdxBnd:
			// GEP (+ifpidx) + ifpbnd: subobject derivation, checked at
			// member granularity immediately.
			a := regs[in.A]
			p := vm.R.GEP(a.v, in.Imm, a.b)
			if in.Sub != SubKeep {
				p = vm.R.SetSub(p, in.Sub)
			}
			regs[in.A] = value{v: p, b: vm.R.Bnd(p, uint64(in.Imm2))}
		case LLoadPChk:
			// promote + ifpchk + load: the pointer-dereference chain.
			a := regs[in.A]
			p, b, err := vm.R.LoadPtr(a.v, a.b)
			if err != nil {
				return value{}, &RunError{int(in.Line), err}
			}
			v, err := vm.R.Load(p, int(in.Size), b)
			if err != nil {
				return value{}, &RunError{int(in.Line2), err}
			}
			regs[in.A] = value{v: signExtend(v, int(in.Size))}
		case LConstGepStore:
			// const + scaled GEP + store: the constant index and the
			// derived address stay virtual. Tick(2) = the const
			// materialization plus the index-scaling multiply of the
			// unfused sequence.
			base := regs[in.B]
			val := regs[in.A]
			vm.R.M.Tick(2)
			p := vm.R.GEP(base.v, in.Imm*in.Imm2, base.b)
			if in.Sub != SubKeep {
				p = vm.R.SetSub(p, in.Sub)
			}
			if err := vm.R.Store(p, val.v, int(in.Size), base.b); err != nil {
				return value{}, &RunError{int(in.Line2), err}
			}
		case LLocalLoad:
			// slot address + load.
			s := vm.slots[slotBase+int(in.Imm)]
			vm.R.M.Tick(1)
			v, err := vm.R.Load(s.P, int(in.Size), s.B)
			if err != nil {
				return value{}, &RunError{int(in.Line2), err}
			}
			regs[in.A] = value{v: signExtend(v, int(in.Size))}
		case LLocalLoadP:
			// slot address + pointer load (promote).
			s := vm.slots[slotBase+int(in.Imm)]
			vm.R.M.Tick(1)
			p, b, err := vm.R.LoadPtr(s.P, s.B)
			if err != nil {
				return value{}, &RunError{int(in.Line2), err}
			}
			regs[in.A] = value{v: p, b: b}
		default:
			return value{}, fmt.Errorf("minic: unknown lowered op %d in %s", in.Op, fn.Name)
		}
	}
}

// freeByPtr frees the live heap allocation whose base p addresses.
// heapObjs keeps each allocation's Obj as malloc returned it, so the
// runtime releases by the allocation-time tag, not by one the guest has
// narrowed or forged, and a pointer that matches no live allocation
// (never allocated, or already freed) is rejected here, before the
// runtime's own liveness checks are reached.
func (vm *VM) freeByPtr(p uint64) error {
	// Temporal mode checks the guest's own pointer before the record scan:
	// a stale-generation pointer is a double free even when its base has
	// since been reallocated (the scan below would otherwise match — and
	// wrongly release — the new object at the same address). No-op in
	// every other mode.
	if err := vm.R.TemporalFreeCheck(p); err != nil {
		return err
	}
	addr := p & (1<<48 - 1)
	for i, o := range vm.heapObjs {
		if o.Base() == addr {
			vm.heapObjs = append(vm.heapObjs[:i], vm.heapObjs[i+1:]...)
			return vm.R.Free(o)
		}
	}
	return fmt.Errorf("free of unallocated pointer %#x", p)
}

func alu(op Op, l, r uint64) (uint64, error) {
	boolV := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return uint64(int64(l) / int64(r)), nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return uint64(int64(l) % int64(r)), nil
	case OpShl:
		return l << (r & 63), nil
	case OpShr:
		return uint64(int64(l) >> (r & 63)), nil
	case OpAnd:
		return l & r, nil
	case OpOr:
		return l | r, nil
	case OpXor:
		return l ^ r, nil
	case OpLt:
		return boolV(int64(l) < int64(r)), nil
	case OpLe:
		return boolV(int64(l) <= int64(r)), nil
	case OpGt:
		return boolV(int64(l) > int64(r)), nil
	case OpGe:
		return boolV(int64(l) >= int64(r)), nil
	case OpEq:
		return boolV(l == r), nil
	case OpNe:
		return boolV(l != r), nil
	}
	return 0, fmt.Errorf("unknown ALU op %d", op)
}

func signExtend(v uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	}
	return v
}

// Execute compiles and runs src under the given mode, returning the
// printed output and main's exit code.
func Execute(src string, mode rt.Mode) (out []int64, exit int64, err error) {
	out, exit, _, err = ExecuteBudget(src, mode, 0)
	return out, exit, err
}

// ExecuteBudget is Execute with an execution budget and counter capture:
// when fuel is non-zero the machine traps with machine.TrapFuel once the
// run has consumed that many cycles (surfaced as a *RunError like any
// other trap), so a guest infinite loop terminates deterministically.
// Fuel 0 means unlimited — only the VM's untyped step backstop applies.
// The machine counters are returned even for trapped runs: they describe
// the work done up to the trap.
//
// Compilation goes through the package's compile cache: each distinct
// source compiles and lowers exactly once per process, and every
// subsequent run of the same bytes reuses the immutable *Compiled.
// Caching is invisible in the results — compilation is a pure function
// of the source, and the VM never mutates the shared program — which the
// fresh-vs-interned equivalence tests pin down.
func ExecuteBudget(src string, mode rt.Mode, fuel uint64) (out []int64, exit int64, c machine.Counters, err error) {
	comp, err := intern(programs, src, compileSource)
	if err != nil {
		return nil, 0, c, err
	}
	r := rt.Acquire(mode)
	defer rt.Release(r)
	vm, err := NewVM(comp, r)
	if err != nil {
		return nil, 0, r.M.C, err
	}
	if fuel > 0 {
		r.M.FuelLimit = fuel
		// Every stack-IR step costs at least half a cycle (the only
		// tick-free op is OpPop, and it cannot appear back-to-back with
		// itself), so 2 steps per unit of fuel would let the typed fuel
		// trap fire first if steps were charged one by one. The dispatch
		// loop charges steps per block and can over-charge skipped
		// instructions by up to one block per taken branch (each costing
		// at least one cycle), so its backstop also scales by the largest
		// block.
		scale := 2 * (vm.lowered.MaxBlock + 1)
		vm.maxSteps = ^uint64(0)
		if fuel < (1<<62)/scale {
			vm.maxSteps = scale*fuel + 1_000_000
		}
	}
	exit, err = vm.Run()
	return vm.Out, exit, r.M.C, err
}

package minic

import (
	"fmt"

	"infat/internal/layout"
	"infat/internal/machine"
	"infat/internal/rt"
)

// This file is the reference stack walker: it executes the stack IR that
// Compile emits one step at a time, with a per-step fuel check. Production
// runs only the register dispatch loop (callReg); the walker is the
// differential oracle that the dispatch-equivalence suite, the fuel tests,
// FuzzDispatchEquivalence and BenchmarkDispatchReference hold it to. It
// shares the VM's frame records and unwindTop with callReg, so both tear
// frames down in the same order.

// ExecuteBudgetReference is ExecuteBudget on the reference stack walker.
// The walker checks fuel every step and every step costs at least half a
// cycle, so a step backstop of 2*fuel lets the typed fuel trap fire first.
func ExecuteBudgetReference(src string, mode rt.Mode, fuel uint64) (out []int64, exit int64, c machine.Counters, err error) {
	comp, err := compileCached(src)
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
		vm.maxSteps = ^uint64(0)
		if fuel < (1<<62)/2 {
			vm.maxSteps = 2*fuel + 1_000_000
		}
	}
	exit, err = vm.RunReference()
	return vm.Out, exit, r.M.C, err
}

// RunReference executes main on the reference stack walker, bypassing the
// lowered bytecode. It is the differential baseline for the register
// dispatch loop; production paths use Run.
func (vm *VM) RunReference() (int64, error) {
	mainIdx := vm.C.FuncIdx["main"]
	ret, err := vm.call(mainIdx, len(vm.stack), 0)
	if err != nil {
		return 0, err
	}
	return int64(ret.v), nil
}

// push appends one operand to the shared stack.
func (vm *VM) push(v value) { vm.stack = append(vm.stack, v) }

// pop removes the top operand. Popping below the current frame's floor is
// a compiler bug (compileValue's void chokepoint rejects the programs
// that could cause it); the panic is recovered into a typed internal trap
// at the RunC boundary, exactly like the out-of-range panic the per-call
// stacks used to produce.
func (vm *VM) pop() value {
	n := len(vm.stack) - 1
	if n < vm.opBase {
		panic("minic: operand stack underflow")
	}
	v := vm.stack[n]
	vm.stack = vm.stack[:n]
	return v
}

// top returns the top operand without removing it.
func (vm *VM) top() value {
	n := len(vm.stack) - 1
	if n < vm.opBase {
		panic("minic: operand stack underflow")
	}
	return vm.stack[n]
}

// call executes function fnIdx. Its nargs arguments are the operands at
// vm.stack[argBase:argBase+nargs] — still owned by the caller, who
// truncates them after the call returns.
func (vm *VM) call(fnIdx, argBase, nargs int) (value, error) {
	fn := vm.C.Funcs[fnIdx]
	slotBase := len(vm.slots)
	vm.frames = append(vm.frames, frame{
		slotBase: slotBase,
		opBase:   vm.opBase,
		mark:     vm.R.StackMark(),
	})
	myFrame := len(vm.frames) - 1
	defer vm.unwindTop()
	vm.opBase = argBase + nargs

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
	// Frame setup complete: from here on, unwinding runs the metadata
	// cleanup epilogue even on early return.
	vm.frames[myFrame].framed = true

	// Bind arguments (bounds passed in registers, §4.1.2: no promote for
	// pointer arguments).
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

	pc := 0
	for {
		if pc < 0 || pc >= len(fn.Code) {
			return value{}, fmt.Errorf("minic: pc %d out of range in %s", pc, fn.Name)
		}
		vm.steps++
		in := fn.Code[pc]
		line := int(in.Line)
		pc++
		// The fuel budget is checked first so that, when a limit is set,
		// exhaustion always surfaces as the typed machine trap rather
		// than the untyped step backstop below.
		if err := vm.R.M.CheckFuel(); err != nil {
			return value{}, &RunError{line, err}
		}
		if vm.steps > vm.maxSteps {
			return value{}, fmt.Errorf("minic: step budget exhausted (infinite loop?)")
		}
		switch in.Op {
		case OpConst:
			vm.R.M.Tick(1)
			vm.push(value{v: uint64(in.Imm)})
		case OpStr:
			vm.R.M.Tick(1)
			s := vm.strings[in.Imm]
			vm.push(value{v: s.P, b: s.B})
		case OpLocal:
			vm.R.M.Tick(1)
			s := vm.slots[slotBase+int(in.Imm)]
			vm.push(value{v: s.P, b: s.B})
		case OpGlobal:
			vm.R.M.Tick(1)
			g := vm.globals[in.Imm]
			vm.push(value{v: g.P, b: g.B})
		case OpLoad:
			a := vm.pop()
			v, err := vm.R.Load(a.v, int(in.Size), a.b)
			if err != nil {
				return value{}, &RunError{line, err}
			}
			vm.push(value{v: signExtend(v, int(in.Size))})
		case OpLoadP:
			a := vm.pop()
			p, b, err := vm.R.LoadPtr(a.v, a.b)
			if err != nil {
				return value{}, &RunError{line, err}
			}
			vm.push(value{v: p, b: b})
		case OpStore:
			a := vm.pop()
			v := vm.pop()
			if err := vm.R.Store(a.v, v.v, int(in.Size), a.b); err != nil {
				return value{}, &RunError{line, err}
			}
		case OpStoreP:
			a := vm.pop()
			v := vm.pop()
			if err := vm.R.StorePtr(a.v, a.b, v.v, v.b); err != nil {
				return value{}, &RunError{line, err}
			}
		case OpGep:
			a := vm.pop()
			p := vm.R.GEP(a.v, in.Imm, a.b)
			if in.Sub != SubKeep {
				p = vm.R.SetSub(p, in.Sub)
			}
			vm.push(value{v: p, b: a.b})
		case OpGepDyn:
			idx := vm.pop()
			a := vm.pop()
			vm.R.M.Tick(1) // index scaling multiply
			p := vm.R.GEP(a.v, int64(idx.v)*in.Imm, a.b)
			if in.Sub != SubKeep {
				p = vm.R.SetSub(p, in.Sub)
			}
			vm.push(value{v: p, b: a.b})
		case OpBnd:
			a := vm.pop()
			vm.push(value{v: a.v, b: vm.R.Bnd(a.v, uint64(in.Imm))})
		case OpAddr:
			a := vm.pop()
			vm.R.M.Tick(1)
			vm.push(value{v: a.v & (1<<48 - 1)})
		case OpJmp:
			vm.R.M.Tick(1)
			pc = int(in.Imm)
		case OpJz:
			vm.R.M.Tick(1)
			if vm.pop().v == 0 {
				pc = int(in.Imm)
			}
		case OpJnz:
			vm.R.M.Tick(1)
			if vm.pop().v != 0 {
				pc = int(in.Imm)
			}
		case OpDup:
			vm.R.M.Tick(1)
			vm.push(vm.top())
		case OpPop:
			vm.pop()
		case OpCall:
			nargs := int(in.Sub)
			base := len(vm.stack) - nargs
			if base < vm.opBase {
				panic("minic: operand stack underflow")
			}
			vm.R.M.Tick(2) // call/ret overhead
			if len(vm.frames) >= maxCallDepth {
				return value{}, callDepthTrap(line)
			}
			ret, err := vm.call(int(in.Imm), base, nargs)
			if err != nil {
				return value{}, err
			}
			vm.stack = vm.stack[:base]
			if vm.C.Funcs[in.Imm].Ret != layout.Void {
				vm.push(ret)
			}
		case OpRet:
			if in.Sub == 1 {
				return vm.pop(), nil
			}
			return value{}, nil
		case OpMalloc:
			size := vm.pop()
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
				return value{}, &RunError{line, err}
			}
			vm.heapObjs = append(vm.heapObjs, obj)
			vm.push(value{v: obj.P, b: obj.B})
		case OpFree:
			p := vm.pop()
			if err := vm.freeByPtr(p.v); err != nil {
				return value{}, &RunError{line, err}
			}
		case OpMemset:
			n := vm.pop()
			v := vm.pop()
			p := vm.pop()
			if err := vm.R.Memset(p.v, byte(v.v), n.v, p.b); err != nil {
				return value{}, &RunError{line, err}
			}
		case OpMemcpy:
			n := vm.pop()
			src := vm.pop()
			dst := vm.pop()
			if err := vm.R.Memcpy(dst.v, dst.b, src.v, src.b, n.v); err != nil {
				return value{}, &RunError{line, err}
			}
		case OpPrint:
			v := vm.pop()
			vm.R.M.Tick(1)
			vm.Out = append(vm.Out, int64(v.v))
		case OpNeg:
			a := vm.pop()
			vm.R.M.Tick(1)
			vm.push(value{v: uint64(-int64(a.v))})
		case OpNot:
			a := vm.pop()
			vm.R.M.Tick(1)
			if a.v == 0 {
				vm.push(value{v: 1})
			} else {
				vm.push(value{v: 0})
			}
		case OpBnot:
			a := vm.pop()
			vm.R.M.Tick(1)
			vm.push(value{v: ^a.v})
		default:
			r := vm.pop()
			l := vm.pop()
			vm.R.M.Tick(1)
			res, err := alu(in.Op, l.v, r.v)
			if err != nil {
				return value{}, &RunError{line, err}
			}
			vm.push(value{v: res})
		}
	}
}

package minic

import (
	"fmt"
	"slices"

	"infat/internal/layout"
)

// This file lowers the stack IR produced by Compile into a flat
// register-style bytecode executed by the VM's register dispatch loop
// (vm.callReg). The stack IR stays the compiler's output — the
// instrumentation pass and its Figure-3 placement are untouched — and
// lowering is a separate, pure translation pass:
//
//   - Stack slots become virtual registers. MiniC's structured control
//     flow guarantees a consistent operand-stack depth at every program
//     point, so the value at depth k simply lives in register k; a
//     depth-consistency analysis proves this per function. Lowering is
//     total over compiler output: a refusal (possible only for hand-built
//     IR) is an error from the compile pipeline and from NewVM, and the
//     dispatch loop is the only executor.
//   - The instrumentation-heavy sequences the paper makes hot are fused
//     into superinstructions dispatched as one switch arm:
//     LLoadPChk (promote+ifpchk+load: every pointer dereference),
//     LGepIdx (ifpadd+ifpidx: member derivation with tag update),
//     LGepIdxBnd (GEP+ifpbnd: member derivation with subobject
//     narrowing), LConstGepStore (constant-index element store), and the
//     bonus pairs LLocalLoad/LLocalLoadP (slot address + load).
//     Each superinstruction retires exactly the machine operations its
//     unfused components would — same rt calls, same order, same Ticks —
//     so machine.Counters stay byte-identical.
//   - The fuel check is amortized per extended basic block: an LBlock
//     pseudo-instruction at every jump target (and function entry)
//     charges the block's step count and checks the budget once, so a
//     fuel-limited run traps with machine.TrapFuel without ever exceeding
//     the budget by more than the current block.
//
// A Lowered program is immutable after Lower returns and is cached on the
// Compiled via sync.Once (see Compiled.Lowered), inheriting the compile
// cache's read-only sharing contract: one lowered program serves any
// number of VMs, concurrently.

// LOp is a lowered opcode.
type LOp uint8

// Lowered opcodes. The L-prefixed singles correspond 1:1 to stack ops
// (with register operands instead of implicit stack slots); the tail of
// the enum is the fused superinstructions.
const (
	LBlock  LOp = iota // block entry: charge Imm steps, check fuel once
	LConst             // r[A] = Imm
	LStr               // r[A] = &string[Imm]
	LLocal             // r[A] = &slot[Imm]
	LGlobal            // r[A] = &global[Imm]
	LLoad              // r[A] = *r[A] (Size bytes, sign-extended)
	LLoadP             // r[A] = promote(*r[A])
	LStore             // *r[A] = r[B] (Size bytes)
	LStoreP            // *r[A] = demote(r[B])
	LGep               // r[A] = r[A] + Imm (ifpadd)
	LGepDyn            // r[A] = r[A] + r[C]*Imm (ifpadd, scaled)
	LBnd               // r[A].bounds = ifpbnd(r[A], Imm)
	LAddr              // r[A] = r[A] & (1<<48 - 1), bounds cleared
	LMov               // r[A] = r[B] (from OpDup)
	LAlu               // r[A] = alu(Sub, r[A], r[C])
	LNeg               // r[A] = -r[A]
	LNot               // r[A] = !r[A]
	LBnot              // r[A] = ^r[A]
	LJmp               // pc = Imm
	LJz                // if r[A] == 0: pc = Imm
	LJnz               // if r[A] != 0: pc = Imm
	LCall              // r[A] = call Funcs[Imm](r[A:A+Sub])
	LRet               // return r[A] if Sub == 1
	LMalloc            // r[A] = malloc(r[A]); Imm = malloc-type index or -1
	LFree              // free(r[A])
	LMemset            // memset(r[A], r[B], r[C])
	LMemcpy            // memcpy(r[A], r[B], r[C])
	LPrint             // print(r[A])

	// Fused superinstructions (each retires its components' exact
	// machine-op sequence; see the dispatch loop).
	LGepIdx        // r[A] = ifpidx(ifpadd(r[A], Imm), Sub)
	LGepIdxBnd     // r[A] = ifpbnd(ifpidx?(ifpadd(r[A], Imm), Sub), Imm2)
	LLoadPChk      // r[A] = *(promote(*r[A])) — pointer deref chain
	LConstGepStore // *(r[B] + Imm*Imm2) = r[A] — constant-index element store
	LLocalLoad     // r[A] = *(&slot[Imm])
	LLocalLoadP    // r[A] = promote(*(&slot[Imm]))
)

// LInsn is one lowered instruction. A, B, C are virtual register numbers
// (frame-relative). Line is the source line of the first fused component
// (used for disassembly and block attribution); Line2 is the line of the
// component whose runtime error the instruction can surface (equal to
// Line for unfused instructions).
type LInsn struct {
	Op        LOp
	Size      uint8
	A, B, C   uint16
	Sub       uint16
	Line      int32
	Line2     int32
	Imm, Imm2 int64
}

// LFunc is one lowered function.
type LFunc struct {
	Name    string
	MaxRegs int // register-file size (peak operand-stack depth)
	Code    []LInsn
	NSuper  int // statically fused superinstruction count
}

// Lowered is a lowered program: one LFunc per Compiled.Funcs entry, same
// indices (so LCall's Imm indexes both).
type Lowered struct {
	Funcs []*LFunc
	// MaxBlock is the largest per-block step charge in the program; the
	// VM scales its untyped step backstop by it so the typed fuel trap
	// always fires first even though block charging can over-charge
	// skipped instructions by up to one block per taken branch.
	MaxBlock uint64
}

// Lowered returns the register-bytecode form of c, lowering on first use
// and caching the result (one immutable lowered program per *Compiled,
// same read-only sharing contract as the stack IR), or the error that
// refused it.
func (c *Compiled) Lowered() (*Lowered, error) {
	c.lowerOnce.Do(func() { c.lowered, c.lowerErr = Lower(c) })
	return c.lowered, c.lowerErr
}

// Lower translates every function of c to register bytecode. It never
// mutates c. An error means some function's stack discipline could not be
// proven: no compiler-produced program fails (TestLoweringTotal), but
// hand-built IR can.
func Lower(c *Compiled) (*Lowered, error) {
	s := getBufs()
	defer putBufs(s)
	l := &Lowered{Funcs: make([]*LFunc, len(c.Funcs)), MaxBlock: 1}
	for i, fn := range c.Funcs {
		lf, maxBlock, err := s.lower.lowerFunc(c, fn)
		if err != nil {
			return nil, fmt.Errorf("minic: lowering %s: %w", fn.Name, err)
		}
		l.Funcs[i] = lf
		if maxBlock > l.MaxBlock {
			l.MaxBlock = maxBlock
		}
	}
	return l, nil
}

// stackEffect returns how many operands in pops and pushes. ok is false
// for opcodes the lowerer does not understand.
func stackEffect(c *Compiled, in Insn) (pops, pushes int, ok bool) {
	switch in.Op {
	case OpConst, OpStr, OpLocal, OpGlobal:
		return 0, 1, true
	case OpLoad, OpLoadP, OpGep, OpBnd, OpAddr, OpMalloc, OpNeg, OpNot, OpBnot:
		return 1, 1, true
	case OpStore, OpStoreP:
		return 2, 0, true
	case OpGepDyn:
		return 2, 1, true
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpShl, OpShr, OpAnd, OpOr, OpXor,
		OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return 2, 1, true
	case OpJmp:
		return 0, 0, true
	case OpJz, OpJnz, OpPop, OpFree, OpPrint:
		return 1, 0, true
	case OpDup:
		return 1, 2, true
	case OpMemset, OpMemcpy:
		return 3, 0, true
	case OpCall:
		if in.Imm < 0 || int(in.Imm) >= len(c.Funcs) {
			return 0, 0, false
		}
		pushes = 0
		if c.Funcs[in.Imm].Ret != layout.Void {
			pushes = 1
		}
		return int(in.Sub), pushes, true
	case OpRet:
		if in.Sub == 1 {
			return 1, 0, true
		}
		return 0, 0, true
	}
	return 0, 0, false
}

// maxFrameRegs bounds the per-function register file; operand depth never
// remotely approaches it for real programs, and uint16 register operands
// need the bound anyway.
const maxFrameRegs = 1 << 14

// lowering is lowerFunc's working memory, kept in frontBufs between
// functions and programs.
type lowering struct {
	depth  []int  // operand-stack depth on entry to each stack pc
	leader []bool // whether each stack pc starts a block
	pcMap  []int  // stack pc -> lowered pc of its (group's) first insn
	work   []int
	fixups []fixup
	code   []LInsn
}

// fixup is a lowered jump whose target is still a stack-IR pc.
type fixup struct {
	lpc    int // lowered jump instruction
	target int // stack-IR target
}

func (l *lowering) reset() {
	l.depth = reuse(l.depth)
	l.leader = reuse(l.leader)
	l.pcMap = reuse(l.pcMap)
	l.work = reuse(l.work)
	l.fixups = reuse(l.fixups)
	l.code = reuse(l.code)
}

// resize returns b with length n, reallocated only when it is too small.
// The contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// lowerFunc lowers one function. It returns the lowered function and its
// largest per-block step charge.
func (l *lowering) lowerFunc(c *Compiled, fn *Func) (*LFunc, uint64, error) {
	n := len(fn.Code)
	if n == 0 {
		return nil, 0, fmt.Errorf("empty code")
	}

	// Pass 1: depth analysis. depth[pc] is the operand-stack depth on
	// entry to pc, or -1 for unreachable code. The value at depth k lives
	// in register k, so the analysis must find one consistent depth per
	// program point — guaranteed by the structured-control-flow compiler,
	// verified here.
	depth := resize(l.depth, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	work := append(l.work[:0], 0)
	maxDepth := 0
	flow := func(from, to, d int) error {
		if to < 0 || to >= n {
			return fmt.Errorf("pc %d: successor %d out of range", from, to)
		}
		if depth[to] == -1 {
			depth[to] = d
			work = append(work, to)
			return nil
		}
		if depth[to] != d {
			return fmt.Errorf("pc %d: depth mismatch at %d (%d vs %d)", from, to, depth[to], d)
		}
		return nil
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := fn.Code[pc]
		pops, pushes, ok := stackEffect(c, in)
		if !ok {
			return nil, 0, fmt.Errorf("pc %d: unsupported op %d", pc, in.Op)
		}
		d := depth[pc] - pops
		if d < 0 {
			return nil, 0, fmt.Errorf("pc %d: operand stack underflow", pc)
		}
		d += pushes
		if d > maxDepth {
			maxDepth = d
		}
		if d >= maxFrameRegs {
			return nil, 0, fmt.Errorf("pc %d: operand depth %d exceeds register file", pc, d)
		}
		switch in.Op {
		case OpJmp:
			if err := flow(pc, int(in.Imm), d); err != nil {
				return nil, 0, err
			}
		case OpJz, OpJnz:
			if err := flow(pc, int(in.Imm), d); err != nil {
				return nil, 0, err
			}
			if err := flow(pc, pc+1, d); err != nil {
				return nil, 0, err
			}
		case OpRet:
			// no successors
		default:
			if err := flow(pc, pc+1, d); err != nil {
				return nil, 0, err
			}
		}
	}

	// Leaders: function entry plus every reachable jump target. A leader
	// starts an extended basic block and gets an LBlock; fusion never
	// spans a leader (a jump may land between fused components
	// otherwise).
	leader := resize(l.leader, n)
	clear(leader)
	leader[0] = true
	for pc, in := range fn.Code {
		if depth[pc] == -1 {
			continue
		}
		switch in.Op {
		case OpJmp, OpJz, OpJnz:
			leader[int(in.Imm)] = true
		}
	}

	// Pass 2: emission. Unreachable stack instructions (e.g. the
	// auto-appended OpRet after an explicit return) are dropped — the
	// reference walker never executes them either.
	lf := &LFunc{Name: fn.Name, MaxRegs: maxDepth}
	pcMap := resize(l.pcMap, n)
	fixups := l.fixups[:0]
	code := l.code[:0]
	var maxBlock uint64
	blockIdx := -1 // open LBlock, or -1
	blockSteps := int64(0)
	closeBlock := func() {
		if blockIdx >= 0 {
			code[blockIdx].Imm = blockSteps
			if uint64(blockSteps) > maxBlock {
				maxBlock = uint64(blockSteps)
			}
		}
		blockSteps = 0
	}
	emit := func(in LInsn) int {
		if in.Line2 == 0 {
			in.Line2 = in.Line
		}
		code = append(code, in)
		return len(code) - 1
	}
	// fusable reports whether the follower pcs can be absorbed into a
	// superinstruction starting at pc: they must exist and not be block
	// leaders (reachability follows from fallthrough).
	fusable := func(pcs ...int) bool {
		for _, p := range pcs {
			if p >= n || leader[p] {
				return false
			}
		}
		return true
	}

	for pc := 0; pc < n; pc++ {
		if depth[pc] == -1 {
			pcMap[pc] = len(code)
			continue
		}
		if leader[pc] {
			closeBlock()
			blockIdx = emit(LInsn{Op: LBlock, Line: fn.Code[pc].Line})
		}
		if leader[pc] {
			pcMap[pc] = blockIdx // jumps land on the block's LBlock
		} else {
			pcMap[pc] = len(code)
		}

		in := fn.Code[pc]
		d := depth[pc]
		reg := func(k int) uint16 { return uint16(k) }

		// Superinstruction peepholes, longest pattern first. Every
		// component is a reference step, so the block charge counts them
		// all.
		switch {
		case in.Op == OpConst && fusable(pc+1, pc+2) &&
			fn.Code[pc+1].Op == OpGepDyn && fn.Code[pc+2].Op == OpStore:
			// value at d-2, base at d-1; the constant index and the
			// address never materialize.
			gep, st := fn.Code[pc+1], fn.Code[pc+2]
			emit(LInsn{
				Op: LConstGepStore, A: reg(d - 2), B: reg(d - 1),
				Imm: in.Imm, Imm2: gep.Imm, Sub: gep.Sub, Size: st.Size,
				Line: in.Line, Line2: st.Line,
			})
			lf.NSuper++
			blockSteps += 3
			pc += 2
			continue
		case in.Op == OpGep && fusable(pc+1) && fn.Code[pc+1].Op == OpBnd:
			bnd := fn.Code[pc+1]
			emit(LInsn{
				Op: LGepIdxBnd, A: reg(d - 1),
				Imm: in.Imm, Sub: in.Sub, Imm2: bnd.Imm,
				Line: in.Line, Line2: bnd.Line,
			})
			lf.NSuper++
			blockSteps += 2
			pc++
			continue
		case in.Op == OpLoadP && fusable(pc+1) && fn.Code[pc+1].Op == OpLoad:
			ld := fn.Code[pc+1]
			emit(LInsn{
				Op: LLoadPChk, A: reg(d - 1), Size: ld.Size,
				Line: in.Line, Line2: ld.Line,
			})
			lf.NSuper++
			blockSteps += 2
			pc++
			continue
		case in.Op == OpLocal && fusable(pc+1) &&
			(fn.Code[pc+1].Op == OpLoad || fn.Code[pc+1].Op == OpLoadP):
			// Leave `local; loadp; load` to the LoadPChk peephole: the
			// promote+check+load chain is the fusion the paper names.
			if fn.Code[pc+1].Op == OpLoadP && fusable(pc+2) && fn.Code[pc+2].Op == OpLoad {
				break
			}
			ld := fn.Code[pc+1]
			op := LLocalLoad
			if ld.Op == OpLoadP {
				op = LLocalLoadP
			}
			emit(LInsn{
				Op: op, A: reg(d), Imm: in.Imm, Size: ld.Size,
				Line: in.Line, Line2: ld.Line,
			})
			lf.NSuper++
			blockSteps += 2
			pc++
			continue
		}

		blockSteps++
		switch in.Op {
		case OpConst:
			emit(LInsn{Op: LConst, A: reg(d), Imm: in.Imm, Line: in.Line})
		case OpStr:
			emit(LInsn{Op: LStr, A: reg(d), Imm: in.Imm, Line: in.Line})
		case OpLocal:
			emit(LInsn{Op: LLocal, A: reg(d), Imm: in.Imm, Line: in.Line})
		case OpGlobal:
			emit(LInsn{Op: LGlobal, A: reg(d), Imm: in.Imm, Line: in.Line})
		case OpLoad:
			emit(LInsn{Op: LLoad, A: reg(d - 1), Size: in.Size, Line: in.Line})
		case OpLoadP:
			emit(LInsn{Op: LLoadP, A: reg(d - 1), Line: in.Line})
		case OpStore:
			emit(LInsn{Op: LStore, A: reg(d - 1), B: reg(d - 2), Size: in.Size, Line: in.Line})
		case OpStoreP:
			emit(LInsn{Op: LStoreP, A: reg(d - 1), B: reg(d - 2), Line: in.Line})
		case OpGep:
			op := LGep
			if in.Sub != SubKeep {
				op = LGepIdx // ifpadd+ifpidx fused in one dispatch
				lf.NSuper++
			}
			emit(LInsn{Op: op, A: reg(d - 1), Imm: in.Imm, Sub: in.Sub, Line: in.Line})
		case OpGepDyn:
			emit(LInsn{Op: LGepDyn, A: reg(d - 2), C: reg(d - 1), Imm: in.Imm, Sub: in.Sub, Line: in.Line})
		case OpBnd:
			emit(LInsn{Op: LBnd, A: reg(d - 1), Imm: in.Imm, Line: in.Line})
		case OpAddr:
			emit(LInsn{Op: LAddr, A: reg(d - 1), Line: in.Line})
		case OpDup:
			emit(LInsn{Op: LMov, A: reg(d), B: reg(d - 1), Line: in.Line})
		case OpPop:
			// The value is simply dead in register form; the reference
			// walker's pop has no machine-visible effect either. Still a
			// charged step (the reference walker counts it).
		case OpJmp:
			fixups = append(fixups, fixup{emit(LInsn{Op: LJmp, Line: in.Line}), int(in.Imm)})
		case OpJz:
			fixups = append(fixups, fixup{emit(LInsn{Op: LJz, A: reg(d - 1), Line: in.Line}), int(in.Imm)})
		case OpJnz:
			fixups = append(fixups, fixup{emit(LInsn{Op: LJnz, A: reg(d - 1), Line: in.Line}), int(in.Imm)})
		case OpCall:
			emit(LInsn{Op: LCall, A: reg(d - int(in.Sub)), Imm: in.Imm, Sub: in.Sub, Line: in.Line})
		case OpRet:
			li := LInsn{Op: LRet, Sub: in.Sub, Line: in.Line}
			if in.Sub == 1 {
				li.A = reg(d - 1)
			}
			emit(li)
		case OpMalloc:
			emit(LInsn{Op: LMalloc, A: reg(d - 1), Imm: in.Imm, Line: in.Line})
		case OpFree:
			emit(LInsn{Op: LFree, A: reg(d - 1), Line: in.Line})
		case OpMemset:
			emit(LInsn{Op: LMemset, A: reg(d - 3), B: reg(d - 2), C: reg(d - 1), Line: in.Line})
		case OpMemcpy:
			emit(LInsn{Op: LMemcpy, A: reg(d - 3), B: reg(d - 2), C: reg(d - 1), Line: in.Line})
		case OpPrint:
			emit(LInsn{Op: LPrint, A: reg(d - 1), Line: in.Line})
		case OpNeg:
			emit(LInsn{Op: LNeg, A: reg(d - 1), Line: in.Line})
		case OpNot:
			emit(LInsn{Op: LNot, A: reg(d - 1), Line: in.Line})
		case OpBnot:
			emit(LInsn{Op: LBnot, A: reg(d - 1), Line: in.Line})
		default:
			// Binary ALU: operands at d-2 (left) and d-1 (right).
			emit(LInsn{Op: LAlu, A: reg(d - 2), C: reg(d - 1), Sub: uint16(in.Op), Line: in.Line})
		}
	}
	closeBlock()

	// Pass 3: retarget jumps from stack-IR pcs to lowered pcs. Every
	// target is a leader, so it maps to its LBlock — entering a block by
	// jump re-charges its steps, which is exactly the amortization
	// contract.
	for _, f := range fixups {
		code[f.lpc].Imm = int64(pcMap[f.target])
	}
	lf.Code = slices.Clone(code)
	l.depth, l.work, l.leader, l.pcMap, l.fixups, l.code = depth, work, leader, pcMap, fixups, code
	return lf, maxBlock, nil
}

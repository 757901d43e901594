package minic

import (
	"fmt"
	"strings"
)

// opNames maps opcodes to mnemonics; the IFP-bearing ops carry the
// hardware mnemonic they lower to, making the instrumentation visible in
// listings.
var opNames = map[Op]string{
	OpConst:  "const",
	OpStr:    "str",
	OpLocal:  "local",
	OpGlobal: "global",
	OpLoad:   "load",
	OpLoadP:  "loadp      ; load + promote",
	OpStore:  "store",
	OpStoreP: "storep     ; ifpextract (demote) + store",
	OpGep:    "gep        ; ifpadd",
	OpGepDyn: "gepdyn     ; ifpadd (scaled)",
	OpBnd:    "bnd        ; ifpbnd",
	OpAddr:   "addr",
	OpAdd:    "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpEq: "eq", OpNe: "ne",
	OpNeg: "neg", OpNot: "not", OpBnot: "bnot",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpDup: "dup", OpPop: "pop",
	OpCall: "call", OpRet: "ret",
	OpMalloc: "malloc", OpFree: "free",
	OpMemset: "memset", OpMemcpy: "memcpy",
	OpPrint: "print",
}

// lopNames maps lowered opcodes to mnemonics. The superinstructions
// spell out the machine-op chain they retire.
var lopNames = map[LOp]string{
	LBlock:  "block",
	LConst:  "const",
	LStr:    "str",
	LLocal:  "local",
	LGlobal: "global",
	LLoad:   "load",
	LLoadP:  "loadp",
	LStore:  "store",
	LStoreP: "storep",
	LGep:    "gep",
	LGepDyn: "gepdyn",
	LBnd:    "bnd",
	LAddr:   "addr",
	LMov:    "mov",
	LAlu:    "alu",
	LNeg:    "neg",
	LNot:    "not",
	LBnot:   "bnot",
	LJmp:    "jmp",
	LJz:     "jz",
	LJnz:    "jnz",
	LCall:   "call",
	LRet:    "ret",
	LMalloc: "malloc",
	LFree:   "free",
	LMemset: "memset",
	LMemcpy: "memcpy",
	LPrint:  "print",

	LGepIdx:        "gepidx",
	LGepIdxBnd:     "gepidxbnd",
	LLoadPChk:      "loadpchk",
	LConstGepStore: "constgepstore",
	LLocalLoad:     "localload",
	LLocalLoadP:    "localloadp",
}

// superNote annotates each superinstruction with the fused machine-op
// chain, mirroring opNames' hardware-mnemonic comments.
var superNote = map[LOp]string{
	LGepIdx:        "ifpadd + ifpidx",
	LGepIdxBnd:     "ifpadd (+ifpidx) + ifpbnd",
	LLoadPChk:      "promote + ifpchk + load",
	LConstGepStore: "const + ifpadd (scaled) + store",
	LLocalLoad:     "local + load",
	LLocalLoadP:    "local + load + promote",
}

// Disassemble renders a compiled program as a readable listing — the
// `minicc -S` output. It shows, per function, the local-slot table with
// registration decisions (which objects the instrumentation pass chose to
// protect) and each instruction with its operands.
func Disassemble(c *Compiled) string {
	var b strings.Builder
	if len(c.Wrappers) > 0 {
		fmt.Fprintf(&b, "; allocation wrappers: %s\n", strings.Join(c.Wrappers, ", "))
	}
	for i, g := range c.Globals {
		fmt.Fprintf(&b, "; global %d: %s %s\n", i, g.Type.Name, g.Name)
	}
	for i, s := range c.Strings {
		fmt.Fprintf(&b, "; string %d: %q\n", i, s)
	}
	for _, fn := range c.Funcs {
		fmt.Fprintf(&b, "\n%s: ; %d params\n", fn.Name, fn.NParams)
		for i, li := range fn.Locals {
			reg := "raw slot"
			if li.Registered {
				reg = "REGISTERED (object metadata)"
			}
			fmt.Fprintf(&b, ";   local %d: %-12s %-16s %s\n", i, li.Name, li.Type.Name, reg)
		}
		for pc, in := range fn.Code {
			name := opNames[in.Op]
			if name == "" {
				name = fmt.Sprintf("op%d", in.Op)
			}
			fmt.Fprintf(&b, "%4d  %s", pc, name)
			switch in.Op {
			case OpConst, OpStr, OpLocal, OpGlobal, OpJmp, OpJz, OpJnz, OpMalloc:
				fmt.Fprintf(&b, " %d", in.Imm)
			case OpGep, OpGepDyn:
				fmt.Fprintf(&b, " %d", in.Imm)
				if in.Sub != SubKeep {
					fmt.Fprintf(&b, " sub=%d ; ifpidx", in.Sub)
				}
			case OpBnd:
				fmt.Fprintf(&b, " size=%d", in.Imm)
			case OpLoad, OpStore:
				fmt.Fprintf(&b, " size=%d", in.Size)
			case OpCall:
				fmt.Fprintf(&b, " %s nargs=%d", c.Funcs[in.Imm].Name, in.Sub)
			case OpRet:
				if in.Sub == 1 {
					b.WriteString(" value")
				}
			}
			if in.Line > 0 {
				fmt.Fprintf(&b, " \t; line %d", in.Line)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// DisassembleLowered renders the register-bytecode form of a compiled
// program — the `minicc -disasm` output. Per function it shows the
// register-file size, each basic block's amortized fuel charge (the
// `block steps=N` pseudo-instruction the dispatch loop bills at block
// entry), register operands, and the fused machine-op chain behind every
// superinstruction. A program that does not lower has no listing, only
// the lowering error.
func DisassembleLowered(c *Compiled) (string, error) {
	l, err := c.Lowered()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for fi, lf := range l.Funcs {
		fn := c.Funcs[fi]
		fmt.Fprintf(&b, "\n%s: ; %d params, %d regs, %d fused\n", lf.Name, fn.NParams, lf.MaxRegs, lf.NSuper)
		for pc, in := range lf.Code {
			name := lopNames[in.Op]
			if name == "" {
				name = fmt.Sprintf("lop%d", in.Op)
			}
			fmt.Fprintf(&b, "%4d  %s", pc, name)
			switch in.Op {
			case LBlock:
				fmt.Fprintf(&b, " steps=%d ; fuel charged here", in.Imm)
			case LConst:
				fmt.Fprintf(&b, " r%d, %d", in.A, in.Imm)
			case LStr, LGlobal:
				fmt.Fprintf(&b, " r%d, %d", in.A, in.Imm)
			case LLocal:
				fmt.Fprintf(&b, " r%d, slot%d", in.A, in.Imm)
			case LLoad:
				fmt.Fprintf(&b, " r%d, size=%d", in.A, in.Size)
			case LLoadP:
				fmt.Fprintf(&b, " r%d ; promote", in.A)
			case LStore:
				fmt.Fprintf(&b, " [r%d], r%d, size=%d", in.A, in.B, in.Size)
			case LStoreP:
				fmt.Fprintf(&b, " [r%d], r%d ; ifpextract (demote)", in.A, in.B)
			case LGep:
				fmt.Fprintf(&b, " r%d, %d ; ifpadd", in.A, in.Imm)
			case LGepDyn:
				fmt.Fprintf(&b, " r%d, r%d*%d ; ifpadd (scaled)", in.A, in.C, in.Imm)
				if in.Sub != SubKeep {
					fmt.Fprintf(&b, " sub=%d", in.Sub)
				}
			case LBnd:
				fmt.Fprintf(&b, " r%d, size=%d ; ifpbnd", in.A, in.Imm)
			case LAddr, LNeg, LNot, LBnot, LFree, LPrint:
				fmt.Fprintf(&b, " r%d", in.A)
			case LMov:
				fmt.Fprintf(&b, " r%d, r%d", in.A, in.B)
			case LAlu:
				alu := opNames[Op(in.Sub)]
				fmt.Fprintf(&b, " %s r%d, r%d", alu, in.A, in.C)
			case LJmp:
				fmt.Fprintf(&b, " %d", in.Imm)
			case LJz, LJnz:
				fmt.Fprintf(&b, " r%d, %d", in.A, in.Imm)
			case LCall:
				fmt.Fprintf(&b, " r%d, %s nargs=%d", in.A, c.Funcs[in.Imm].Name, in.Sub)
			case LRet:
				if in.Sub == 1 {
					fmt.Fprintf(&b, " r%d", in.A)
				}
			case LMalloc:
				fmt.Fprintf(&b, " r%d, type=%d", in.A, in.Imm)
			case LMemset, LMemcpy:
				fmt.Fprintf(&b, " r%d, r%d, r%d", in.A, in.B, in.C)
			case LGepIdx:
				fmt.Fprintf(&b, " r%d, %d sub=%d ; %s", in.A, in.Imm, in.Sub, superNote[in.Op])
			case LGepIdxBnd:
				fmt.Fprintf(&b, " r%d, %d", in.A, in.Imm)
				if in.Sub != SubKeep {
					fmt.Fprintf(&b, " sub=%d", in.Sub)
				}
				fmt.Fprintf(&b, " size=%d ; %s", in.Imm2, superNote[in.Op])
			case LLoadPChk:
				fmt.Fprintf(&b, " r%d, size=%d ; %s", in.A, in.Size, superNote[in.Op])
			case LConstGepStore:
				fmt.Fprintf(&b, " [r%d + %d*%d], r%d, size=%d ; %s", in.B, in.Imm, in.Imm2, in.A, in.Size, superNote[in.Op])
			case LLocalLoad:
				fmt.Fprintf(&b, " r%d, slot%d, size=%d ; %s", in.A, in.Imm, in.Size, superNote[in.Op])
			case LLocalLoadP:
				fmt.Fprintf(&b, " r%d, slot%d ; %s", in.A, in.Imm, superNote[in.Op])
			}
			if in.Line > 0 && in.Op != LBlock {
				fmt.Fprintf(&b, " \t; line %d", in.Line)
			}
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

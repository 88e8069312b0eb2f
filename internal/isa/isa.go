// Package isa defines FG3-lite, a simulated DSP instruction set standing in
// for the Tensilica Fusion G3 the paper targets (§5.1–5.2). FG3-lite is an
// in-order VLIW-style core with:
//
//   - scalar float registers (f), integer/address registers (i), and
//     W-wide vector registers (v), with W = 4 by default like the G3's
//     4-wide single-precision SIMD unit;
//   - unit-delay memory of float elements (matching xt-run's default ideal
//     memory model);
//   - flexible data movement: single-register shuffle (VShfl, the analogue
//     of PDX_SHFL_MX32) and two-register select (VSel, PDX_SEL_MX32) with
//     arbitrary immediate index vectors;
//   - fused multiply–accumulate (VMac, PDX_MAC_MFX32);
//   - dual issue: one memory-slot and one ALU-slot operation per cycle when
//     independent.
//
// Programs are sequences of Instr with symbolic labels; the simulator in
// package sim executes them and reports deterministic cycle counts.
package isa

import (
	"fmt"
	"strings"
)

// Opcode enumerates FG3-lite instructions.
type Opcode uint8

const (
	Invalid Opcode = iota

	// Scalar float: f registers.
	SConst // f[Dst] = Imm
	SMov   // f[Dst] = f[A]
	SLoad  // f[Dst] = mem[i[A] + IImm]
	SStore // mem[i[A] + IImm] = f[B]
	SAdd   // f[Dst] = f[A] + f[B]
	SSub
	SMul
	SDiv
	SNeg  // f[Dst] = -f[A]
	SSqrt // f[Dst] = sqrt(f[A])
	SSgn  // f[Dst] = sgn(f[A])  (−1 if negative else +1)
	SAbs  // f[Dst] = |f[A]|

	// Integer/address: i registers.
	IConst // i[Dst] = IImm
	ILoad  // i[Dst] = int(mem[i[A] + IImm]) — integer/size parameter load
	IMov   // i[Dst] = i[A]
	IAdd   // i[Dst] = i[A] + i[B]
	ISub
	IMul
	IDiv
	IMod
	IAddI // i[Dst] = i[A] + IImm
	IMulI // i[Dst] = i[A] * IImm

	// Control flow. Branches compare registers and jump to Target.
	Jmp    // unconditional
	BrLT   // if i[A] <  i[B]
	BrGE   // if i[A] >= i[B]
	BrEQ   // if i[A] == i[B]
	BrNE   // if i[A] != i[B]
	BrLTF  // if f[A] <  f[B]
	BrGEF  // if f[A] >= f[B]
	Halt   // stop execution
	CallFn // uninterpreted scalar function: f[Dst] = fn[Sym](f args via FArgs)

	// Vector: v registers.
	VConst   // v[Dst] = Vals (VecWidth floats)
	VMov     // v[Dst] = v[A]
	VBcast   // v[Dst] = splat f[A]
	VLoad    // v[Dst] = mem[i[A]+IImm : +VecWidth] (aligned or not: unit cost)
	VStore   // mem[i[A]+IImm : +VecWidth] = v[B]
	VStoreN  // first IImm2 lanes of v[B] stored at mem[i[A]+IImm]
	VInsert  // v[Dst][IImm] = f[A]
	VExtract // f[Dst] = v[A][IImm]
	VShfl    // v[Dst][k] = v[A][Idx[k]]              (PDX_SHFL-like)
	VSel     // v[Dst][k] = concat(v[A], v[B])[Idx[k]] (PDX_SEL-like)
	VAdd     // v[Dst] = v[A] + v[B] elementwise
	VSub
	VMul
	VDiv
	VMac // v[Dst] = v[Dst] + v[A]*v[B] (accumulating)
	VNeg
	VSqrt
	VSgn
	VCallFn // uninterpreted vector function, elementwise over v args

	NumOpcodes
)

// Instr is one FG3-lite instruction. Register fields index the f/i/v files
// depending on the opcode.
type Instr struct {
	Op     Opcode
	Dst    int
	A, B   int
	Imm    float64   // scalar immediate
	IImm   int       // integer immediate / memory offset / lane index
	IImm2  int       // second integer immediate (VStoreN lane count)
	Vals   []float64 // VConst payload
	Idx    []int     // VShfl/VSel index vector
	Target string    // branch target label
	Sym    string    // CallFn/VCallFn function name
	Args   []int     // CallFn/VCallFn argument registers
}

// Slot is the VLIW issue slot an instruction occupies.
type Slot uint8

const (
	SlotALU Slot = iota
	SlotMem
	SlotCtrl
)

// Kind groups opcodes for cost accounting and verification.
func (op Opcode) Slot() Slot {
	switch op {
	case SLoad, SStore, VLoad, VStore, VStoreN, ILoad:
		return SlotMem
	case Jmp, BrLT, BrGE, BrEQ, BrNE, BrLTF, BrGEF, Halt:
		return SlotCtrl
	default:
		return SlotALU
	}
}

// Latency returns the issue-to-result latency in cycles. FG3-lite issues
// one instruction (or one dual-issue pair) per cycle; long-latency ops
// stall dependents.
func (op Opcode) Latency() int {
	switch op {
	case SDiv, IDiv, IMod:
		return 8
	case SSqrt:
		return 12
	case VDiv:
		return 10
	case VSqrt:
		return 14
	case CallFn, VCallFn:
		return 4
	default:
		return 1
	}
}

// IsBranch reports whether the opcode may transfer control.
func (op Opcode) IsBranch() bool {
	switch op {
	case Jmp, BrLT, BrGE, BrEQ, BrNE, BrLTF, BrGEF:
		return true
	}
	return false
}

// IsVector reports whether the opcode touches vector registers.
func (op Opcode) IsVector() bool {
	switch op {
	case VConst, VMov, VBcast, VLoad, VStore, VStoreN, VInsert, VExtract,
		VShfl, VSel, VAdd, VSub, VMul, VDiv, VMac, VNeg, VSqrt, VSgn, VCallFn:
		return true
	}
	return false
}

var opNames = map[Opcode]string{
	SConst: "sconst", SMov: "smov", SLoad: "sload", SStore: "sstore",
	SAdd: "sadd", SSub: "ssub", SMul: "smul", SDiv: "sdiv",
	SNeg: "sneg", SSqrt: "ssqrt", SSgn: "ssgn", SAbs: "sabs",
	IConst: "iconst", ILoad: "iload", IMov: "imov", IAdd: "iadd", ISub: "isub",
	IMul: "imul", IDiv: "idiv", IMod: "imod", IAddI: "iaddi", IMulI: "imuli",
	Jmp: "jmp", BrLT: "brlt", BrGE: "brge", BrEQ: "breq", BrNE: "brne",
	BrLTF: "brltf", BrGEF: "brgef", Halt: "halt", CallFn: "call",
	VConst: "vconst", VMov: "vmov", VBcast: "vbcast", VLoad: "vload",
	VStore: "vstore", VStoreN: "vstoren", VInsert: "vinsert",
	VExtract: "vextract", VShfl: "vshfl", VSel: "vsel",
	VAdd: "vadd", VSub: "vsub", VMul: "vmul", VDiv: "vdiv", VMac: "vmac",
	VNeg: "vneg", VSqrt: "vsqrt", VSgn: "vsgn", VCallFn: "vcall",
}

// String returns the opcode mnemonic.
func (op Opcode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// String renders the instruction in a readable assembly-like syntax.
func (in Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", in.Op)
	switch in.Op {
	case SConst:
		fmt.Fprintf(&b, "f%d, %g", in.Dst, in.Imm)
	case SMov, SNeg, SSqrt, SSgn, SAbs:
		fmt.Fprintf(&b, "f%d, f%d", in.Dst, in.A)
	case SLoad:
		fmt.Fprintf(&b, "f%d, [i%d+%d]", in.Dst, in.A, in.IImm)
	case ILoad:
		fmt.Fprintf(&b, "i%d, [i%d+%d]", in.Dst, in.A, in.IImm)
	case SStore:
		fmt.Fprintf(&b, "[i%d+%d], f%d", in.A, in.IImm, in.B)
	case SAdd, SSub, SMul, SDiv:
		fmt.Fprintf(&b, "f%d, f%d, f%d", in.Dst, in.A, in.B)
	case IConst:
		fmt.Fprintf(&b, "i%d, %d", in.Dst, in.IImm)
	case IMov:
		fmt.Fprintf(&b, "i%d, i%d", in.Dst, in.A)
	case IAdd, ISub, IMul, IDiv, IMod:
		fmt.Fprintf(&b, "i%d, i%d, i%d", in.Dst, in.A, in.B)
	case IAddI, IMulI:
		fmt.Fprintf(&b, "i%d, i%d, %d", in.Dst, in.A, in.IImm)
	case Jmp:
		fmt.Fprintf(&b, "%s", in.Target)
	case BrLT, BrGE, BrEQ, BrNE:
		fmt.Fprintf(&b, "i%d, i%d, %s", in.A, in.B, in.Target)
	case BrLTF, BrGEF:
		fmt.Fprintf(&b, "f%d, f%d, %s", in.A, in.B, in.Target)
	case Halt:
	case CallFn:
		fmt.Fprintf(&b, "f%d, %s(%v)", in.Dst, in.Sym, in.Args)
	case VConst:
		fmt.Fprintf(&b, "v%d, %v", in.Dst, in.Vals)
	case VMov, VNeg, VSqrt, VSgn:
		fmt.Fprintf(&b, "v%d, v%d", in.Dst, in.A)
	case VBcast:
		fmt.Fprintf(&b, "v%d, f%d", in.Dst, in.A)
	case VLoad:
		fmt.Fprintf(&b, "v%d, [i%d+%d]", in.Dst, in.A, in.IImm)
	case VStore:
		fmt.Fprintf(&b, "[i%d+%d], v%d", in.A, in.IImm, in.B)
	case VStoreN:
		fmt.Fprintf(&b, "[i%d+%d], v%d, n=%d", in.A, in.IImm, in.B, in.IImm2)
	case VInsert:
		fmt.Fprintf(&b, "v%d[%d], f%d", in.Dst, in.IImm, in.A)
	case VExtract:
		fmt.Fprintf(&b, "f%d, v%d[%d]", in.Dst, in.A, in.IImm)
	case VShfl:
		fmt.Fprintf(&b, "v%d, v%d, %v", in.Dst, in.A, in.Idx)
	case VSel:
		fmt.Fprintf(&b, "v%d, v%d, v%d, %v", in.Dst, in.A, in.B, in.Idx)
	case VAdd, VSub, VMul, VDiv:
		fmt.Fprintf(&b, "v%d, v%d, v%d", in.Dst, in.A, in.B)
	case VMac:
		fmt.Fprintf(&b, "v%d += v%d*v%d", in.Dst, in.A, in.B)
	case VCallFn:
		fmt.Fprintf(&b, "v%d, %s(%v)", in.Dst, in.Sym, in.Args)
	}
	return strings.TrimRight(b.String(), " ")
}

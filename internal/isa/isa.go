// Package isa defines the instruction set architecture shared by the
// functional executor, both pipeline timing models, the assembler, and the
// static worst-case timing analyzer.
//
// The ISA is a 32-bit MIPS-like load/store RISC, standing in for the
// SimpleScalar PISA instruction set used in the VISA paper. It has 32
// integer registers (R0 hardwired to zero), 32 floating-point registers
// (each holding a float64), fixed 4-byte instructions, compare-and-branch
// conditional branches, and indirect jumps for returns and calls through
// registers. Instruction execution latencies follow the MIPS R10K-class
// latencies that the paper's Table 1 specifies for the VISA.
package isa

import "fmt"

// Op identifies an operation.
type Op uint8

// Operation codes. The groupings matter to the timing models: integer ALU
// operations are single-cycle, multiply/divide are multi-cycle, FP
// operations use R10K-class latencies, loads and stores access the data
// cache, and branches/jumps steer fetch.
const (
	NOP Op = iota

	// Integer register-register ALU (latency 1).
	ADD
	SUB
	AND
	OR
	XOR
	NOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Integer register-immediate ALU (latency 1).
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLLI
	SRLI
	SRAI
	LUI

	// Multi-cycle integer arithmetic.
	MUL // latency 6
	DIV // latency 35
	REM // latency 35

	// Floating point (operands in F registers).
	FADD // latency 2
	FSUB // latency 2
	FMUL // latency 2
	FDIV // latency 12
	FNEG // latency 2
	FMOV // latency 2

	// Conversions and FP compares (FP result latency 2; compares write an
	// integer register).
	CVTIF // Fd <- float(Rs)
	CVTFI // Rd <- int(Fs), truncating
	FEQ   // Rd <- Fs == Ft
	FLT   // Rd <- Fs < Ft
	FLE   // Rd <- Fs <= Ft

	// Memory. LW/SW move 32-bit integers; LD/SD move 64-bit floats.
	LW
	SW
	LD
	SD

	// Control flow. Conditional branches compare two integer registers and
	// branch to a direct target. J/JAL are direct jumps; JR/JALR are
	// indirect (register) jumps, which the VISA pipeline cannot predict.
	BEQ
	BNE
	BLT
	BGE
	J
	JAL
	JR
	JALR

	// MARK declares a sub-task boundary: the code snippet that advances the
	// watchdog counter and samples the cycle counter (paper §2.2, §4.3).
	// The timing models charge it a fixed serializing snippet cost.
	MARK

	// OUT and OUTF append Rs / Fs to the machine's output stream. They give
	// benchmarks an observable result for correctness tests.
	OUT
	OUTF

	// HALT ends the task.
	HALT

	numOps
)

// NumOps is the number of defined opcodes (useful for property tests).
const NumOps = int(numOps)

// Format describes how an instruction's fields are used.
type Format uint8

// Instruction formats.
const (
	FmtNone   Format = iota // no operands (NOP, HALT)
	FmtRRR                  // Rd <- Rs op Rt
	FmtRRI                  // Rd <- Rs op Imm
	FmtRI                   // Rd <- op Imm (LUI)
	FmtFRR                  // Fd <- Fs op Ft
	FmtFR                   // Fd <- op Fs (FNEG, FMOV, CVTIF uses Rs)
	FmtMem                  // Rd/Fd <-> Mem[Rs+Imm]
	FmtBranch               // compare Rs,Rt; target Imm (absolute instruction index)
	FmtJump                 // target Imm
	FmtJR                   // indirect through Rs (JALR also writes Rd)
	FmtR                    // single integer register source (OUT, JR)
	FmtImm                  // immediate only (MARK)
)

// Class partitions opcodes by the pipeline resource they exercise.
type Class uint8

// Instruction classes used by the timing models and the power model.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFP
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional direct branch
	ClassJump   // unconditional direct jump
	ClassJR     // indirect jump (unpredictable in the VISA)
	ClassMark
	ClassOut
	ClassHalt
)

type opInfo struct {
	name    string
	format  Format
	class   Class
	latency int // execute-stage occupancy in cycles (R10K-class, Table 1)
}

var opTable = [numOps]opInfo{
	NOP:   {"nop", FmtNone, ClassNop, 1},
	ADD:   {"add", FmtRRR, ClassIntALU, 1},
	SUB:   {"sub", FmtRRR, ClassIntALU, 1},
	AND:   {"and", FmtRRR, ClassIntALU, 1},
	OR:    {"or", FmtRRR, ClassIntALU, 1},
	XOR:   {"xor", FmtRRR, ClassIntALU, 1},
	NOR:   {"nor", FmtRRR, ClassIntALU, 1},
	SLL:   {"sll", FmtRRR, ClassIntALU, 1},
	SRL:   {"srl", FmtRRR, ClassIntALU, 1},
	SRA:   {"sra", FmtRRR, ClassIntALU, 1},
	SLT:   {"slt", FmtRRR, ClassIntALU, 1},
	SLTU:  {"sltu", FmtRRR, ClassIntALU, 1},
	ADDI:  {"addi", FmtRRI, ClassIntALU, 1},
	ANDI:  {"andi", FmtRRI, ClassIntALU, 1},
	ORI:   {"ori", FmtRRI, ClassIntALU, 1},
	XORI:  {"xori", FmtRRI, ClassIntALU, 1},
	SLTI:  {"slti", FmtRRI, ClassIntALU, 1},
	SLLI:  {"slli", FmtRRI, ClassIntALU, 1},
	SRLI:  {"srli", FmtRRI, ClassIntALU, 1},
	SRAI:  {"srai", FmtRRI, ClassIntALU, 1},
	LUI:   {"lui", FmtRI, ClassIntALU, 1},
	MUL:   {"mul", FmtRRR, ClassIntMul, 6},
	DIV:   {"div", FmtRRR, ClassIntDiv, 35},
	REM:   {"rem", FmtRRR, ClassIntDiv, 35},
	FADD:  {"fadd", FmtFRR, ClassFP, 2},
	FSUB:  {"fsub", FmtFRR, ClassFP, 2},
	FMUL:  {"fmul", FmtFRR, ClassFP, 2},
	FDIV:  {"fdiv", FmtFRR, ClassFPDiv, 12},
	FNEG:  {"fneg", FmtFR, ClassFP, 2},
	FMOV:  {"fmov", FmtFR, ClassFP, 2},
	CVTIF: {"cvtif", FmtFR, ClassFP, 2},
	CVTFI: {"cvtfi", FmtFR, ClassFP, 2},
	FEQ:   {"feq", FmtFRR, ClassFP, 2},
	FLT:   {"flt", FmtFRR, ClassFP, 2},
	FLE:   {"fle", FmtFRR, ClassFP, 2},
	LW:    {"lw", FmtMem, ClassLoad, 1},
	SW:    {"sw", FmtMem, ClassStore, 1},
	LD:    {"ld", FmtMem, ClassLoad, 1},
	SD:    {"sd", FmtMem, ClassStore, 1},
	BEQ:   {"beq", FmtBranch, ClassBranch, 1},
	BNE:   {"bne", FmtBranch, ClassBranch, 1},
	BLT:   {"blt", FmtBranch, ClassBranch, 1},
	BGE:   {"bge", FmtBranch, ClassBranch, 1},
	J:     {"j", FmtJump, ClassJump, 1},
	JAL:   {"jal", FmtJump, ClassJump, 1},
	JR:    {"jr", FmtJR, ClassJR, 1},
	JALR:  {"jalr", FmtJR, ClassJR, 1},
	MARK:  {"mark", FmtImm, ClassMark, 1},
	OUT:   {"out", FmtR, ClassOut, 1},
	OUTF:  {"outf", FmtR, ClassOut, 1},
	HALT:  {"halt", FmtNone, ClassHalt, 1},
}

// zextImm marks the ops whose 16-bit immediate field is zero-extended
// (see Op.ZeroExtendsImm); every other immediate is sign-extended.
var zextImm = [numOps]bool{ANDI: true, ORI: true, XORI: true, LUI: true}

// Name returns the assembler mnemonic for op.
func (op Op) Name() string {
	if int(op) >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Format returns the operand format of op.
func (op Op) Format() Format { return opTable[op].format }

// Class returns the resource class of op.
func (op Op) Class() Class { return opTable[op].class }

// Latency returns the execute-stage latency of op in cycles. Load latency
// excludes cache miss time, which the timing models add.
func (op Op) Latency() int { return opTable[op].latency }

// ZeroExtendsImm reports whether op's 16-bit immediate field holds an
// unsigned value (0..65535) rather than a signed one (-32768..32767). As
// on MIPS, the logical ops ANDI, ORI and XORI zero-extend, and so does
// LUI, whose field is the raw upper half; the li and la pseudo-ops rely on
// both. The in-memory Inst carries the extended value either way, so this
// is the convention Encode, Decode and the assembler agree on.
func (op Op) ZeroExtendsImm() bool { return int(op) < NumOps && zextImm[op] }

// ImmFits reports whether v fits op's 16-bit immediate field under op's
// extension convention.
func (op Op) ImmFits(v int32) bool {
	if op.ZeroExtendsImm() {
		return v >= 0 && v <= 0xffff
	}
	return fitsInt16(v)
}

// IsBranch reports whether op can redirect fetch (conditional branches,
// direct jumps, and indirect jumps).
func (op Op) IsBranch() bool {
	switch op.Class() {
	case ClassBranch, ClassJump, ClassJR:
		return true
	}
	return false
}

// IsCondBranch reports whether op is a conditional direct branch.
func (op Op) IsCondBranch() bool { return op.Class() == ClassBranch }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool {
	c := op.Class()
	return c == ClassLoad || c == ClassStore
}

// Conventional register assignments used by the mini-C compiler's ABI.
const (
	RegZero = 0  // hardwired zero
	RegRV   = 2  // integer return value
	RegArg0 = 4  // first of four integer argument registers (R4-R7)
	RegTmp0 = 8  // first caller-saved temporary
	RegSP   = 29 // stack pointer
	RegFP   = 30 // frame pointer
	RegRA   = 31 // return address

	FRegRV   = 0 // FP return value
	FRegArg0 = 2 // first of four FP argument registers (F2-F5)
	FRegTmp0 = 6 // first FP temporary
)

// Inst is a decoded instruction. Branch and jump targets are stored as
// absolute instruction indexes in Imm; the binary encoding converts them to
// PC-relative (branches) or segment-absolute (jumps) forms.
type Inst struct {
	Op     Op
	Rd     uint8 // destination register (integer or FP depending on Op)
	Rs, Rt uint8 // source registers
	Imm    int32 // immediate, displacement, or target instruction index
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op.Format() {
	case FmtNone:
		return in.Op.Name()
	case FmtRRR:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op.Name(), in.Rd, in.Rs, in.Rt)
	case FmtRRI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op.Name(), in.Rd, in.Rs, in.Imm)
	case FmtRI:
		return fmt.Sprintf("%s r%d, %d", in.Op.Name(), in.Rd, in.Imm)
	case FmtFRR:
		if in.Op == FEQ || in.Op == FLT || in.Op == FLE {
			return fmt.Sprintf("%s r%d, f%d, f%d", in.Op.Name(), in.Rd, in.Rs, in.Rt)
		}
		return fmt.Sprintf("%s f%d, f%d, f%d", in.Op.Name(), in.Rd, in.Rs, in.Rt)
	case FmtFR:
		switch in.Op {
		case CVTIF:
			return fmt.Sprintf("%s f%d, r%d", in.Op.Name(), in.Rd, in.Rs)
		case CVTFI:
			return fmt.Sprintf("%s r%d, f%d", in.Op.Name(), in.Rd, in.Rs)
		default:
			return fmt.Sprintf("%s f%d, f%d", in.Op.Name(), in.Rd, in.Rs)
		}
	case FmtMem:
		reg := "r"
		if in.Op == LD || in.Op == SD {
			reg = "f"
		}
		return fmt.Sprintf("%s %s%d, %d(r%d)", in.Op.Name(), reg, in.Rd, in.Imm, in.Rs)
	case FmtBranch:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op.Name(), in.Rs, in.Rt, in.Imm)
	case FmtJump:
		return fmt.Sprintf("%s @%d", in.Op.Name(), in.Imm)
	case FmtJR:
		if in.Op == JALR {
			return fmt.Sprintf("%s r%d, r%d", in.Op.Name(), in.Rd, in.Rs)
		}
		return fmt.Sprintf("%s r%d", in.Op.Name(), in.Rs)
	case FmtR:
		if in.Op == OUTF {
			return fmt.Sprintf("%s f%d", in.Op.Name(), in.Rs)
		}
		return fmt.Sprintf("%s r%d", in.Op.Name(), in.Rs)
	case FmtImm:
		return fmt.Sprintf("%s %d", in.Op.Name(), in.Imm)
	}
	return fmt.Sprintf("%s ?", in.Op.Name())
}

// HasIntDest reports whether the instruction writes an integer register.
func (in Inst) HasIntDest() bool {
	switch in.Op.Format() {
	case FmtRRR, FmtRRI, FmtRI:
		return in.Rd != RegZero
	case FmtFRR:
		return (in.Op == FEQ || in.Op == FLT || in.Op == FLE) && in.Rd != RegZero
	case FmtFR:
		return in.Op == CVTFI && in.Rd != RegZero
	case FmtMem:
		return in.Op == LW && in.Rd != RegZero
	case FmtJump:
		return in.Op == JAL
	case FmtJR:
		return in.Op == JALR && in.Rd != RegZero
	}
	return false
}

// HasFPDest reports whether the instruction writes a floating-point register.
func (in Inst) HasFPDest() bool {
	switch in.Op {
	case FADD, FSUB, FMUL, FDIV, FNEG, FMOV, CVTIF, LD:
		return true
	}
	return false
}

// IntDest returns the integer destination register; valid when HasIntDest.
// JAL writes the link register.
func (in Inst) IntDest() uint8 {
	if in.Op == JAL {
		return RegRA
	}
	return in.Rd
}

// IntSources returns the integer source registers read by the instruction.
// The result reuses the provided buffer, which must have capacity >= 2.
func (in Inst) IntSources(buf []uint8) []uint8 {
	buf = buf[:0]
	switch in.Op.Format() {
	case FmtRRR:
		buf = append(buf, in.Rs, in.Rt)
	case FmtRRI:
		buf = append(buf, in.Rs)
	case FmtFRR, FmtRI:
		// FP-only sources, or no register source.
	case FmtFR:
		if in.Op == CVTIF {
			buf = append(buf, in.Rs)
		}
	case FmtMem:
		buf = append(buf, in.Rs) // address base
		if in.Op == SW {
			buf = append(buf, in.Rd) // store data
		}
	case FmtBranch:
		buf = append(buf, in.Rs, in.Rt)
	case FmtJR:
		buf = append(buf, in.Rs)
	case FmtR:
		if in.Op == OUT {
			buf = append(buf, in.Rs)
		}
	}
	return buf
}

// FPSources returns the FP source registers read by the instruction. The
// result reuses the provided buffer, which must have capacity >= 2.
func (in Inst) FPSources(buf []uint8) []uint8 {
	buf = buf[:0]
	switch in.Op {
	case FADD, FSUB, FMUL, FDIV, FEQ, FLT, FLE:
		buf = append(buf, in.Rs, in.Rt)
	case FNEG, FMOV, CVTFI:
		buf = append(buf, in.Rs)
	case SD:
		buf = append(buf, in.Rd) // store data
	case OUTF:
		buf = append(buf, in.Rs)
	}
	return buf
}

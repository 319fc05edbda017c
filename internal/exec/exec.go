// Package exec implements the functional (architectural) executor. Both
// cycle-level timing models are functional-first: the executor runs the
// program architecturally and streams one DynInst record per retired
// instruction, which the timing models consume to compute cycles, cache
// behaviour, and branch outcomes.
package exec

import (
	"fmt"
	"math"

	"visa/internal/isa"
	"visa/internal/mem"
)

// DynInst is one dynamically executed instruction, with everything a timing
// model needs: the static instruction, its effective address for memory
// operations, and the actual control-flow outcome for branches.
//
// The layout is deliberately 32 bytes (PCs are int32: code indexes are
// bounded far below 2^31 by the 4-byte-instruction code segment). The feed
// path writes and reads one record per simulated instruction, so two
// records per host cache line instead of 48-byte records straddling them
// is measurable end-to-end.
type DynInst struct {
	Seq    int64    // 0-based dynamic sequence number
	PC     int32    // instruction index
	Addr   uint32   // effective address (memory ops)
	Inst   isa.Inst // static instruction
	NextPC int32    // actual successor PC
	Taken  bool     // branch/jump outcome
}

// start initializes the record for instruction in at pc as a fall-through
// with no memory access, ready for execute to fill in the outcome. It writes
// the fields one by one on purpose: assigning a DynInst literal makes the
// compiler build it in a stack temporary with narrow stores and then copy
// it out with wide loads, which stalls on store forwarding once per record.
func (d *DynInst) start(seq int64, pc int32, in isa.Inst) {
	d.Seq = seq
	d.PC = pc
	d.Addr = 0
	d.Inst = in
	d.NextPC = pc + 1
	d.Taken = false
}

// Machine holds architectural state for one task execution.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory

	R  [32]int32
	F  [32]float64
	PC int

	// Out and OutF collect the values written by OUT/OUTF, giving tests an
	// observable result to compare against a reference computation.
	Out  []int32
	OutF []float64

	Seq    int64
	Halted bool
}

// New creates a machine with the program's data image loaded and the stack
// pointer initialized.
func New(p *isa.Program) *Machine {
	m := &Machine{Prog: p, Mem: mem.New()}
	m.Reset()
	return m
}

// Reset restores initial architectural state: registers cleared, data image
// reloaded, PC at the entry point. The memory device attachment survives.
func (m *Machine) Reset() {
	m.R = [32]int32{}
	m.F = [32]float64{}
	m.R[isa.RegSP] = int32(isa.StackTop)
	m.R[isa.RegFP] = int32(isa.StackTop)
	m.Mem.Reset()
	m.Mem.LoadImage(isa.DataBase, m.Prog.Data)
	m.PC = m.Prog.Entry()
	// Fresh output slices: callers may hold the previous run's Out/OutF (the
	// conformance oracle compares streams across runs), so truncating in
	// place would let the next run overwrite them.
	m.Out = nil
	m.OutF = nil
	m.Seq = 0
	m.Halted = false
	// A return from the entry function lands on the sentinel, halting.
	m.R[isa.RegRA] = int32(len(m.Prog.Code))
}

// ExecError wraps an execution fault with its location.
type ExecError struct {
	PC  int
	Seq int64
	Err error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("exec fault at pc %d (seq %d): %v", e.PC, e.Seq, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// Step executes one instruction and returns its dynamic record. After HALT
// (or a return past the end of code) it returns ok=false.
func (m *Machine) Step() (DynInst, bool, error) {
	var d DynInst
	ok, err := m.stepInto(&d)
	return d, ok, err
}

// stepInto executes one instruction, writing its dynamic record into *d.
// Writing in place (rather than returning the 32-byte record by value) is
// what lets Fill stream straight into a caller-owned batch.
func (m *Machine) stepInto(d *DynInst) (bool, error) {
	if m.Halted {
		return false, nil
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Code) {
		// Reaching the end-of-code sentinel is a clean halt (return from
		// the entry function).
		if m.PC == len(m.Prog.Code) {
			m.Halted = true
			return false, nil
		}
		return false, &ExecError{m.PC, m.Seq, fmt.Errorf("pc out of range")}
	}
	in := m.Prog.Code[m.PC]
	d.start(m.Seq, int32(m.PC), in)
	if err := m.execute(in, d); err != nil {
		return false, &ExecError{m.PC, m.Seq, err}
	}
	m.R[0] = 0
	m.PC = int(d.NextPC)
	m.Seq++
	if in.Op == isa.HALT {
		m.Halted = true
	}
	return true, nil
}

// Fill executes instructions until dst is full, the program halts, or a
// fault occurs, and returns the number of records written. The timing
// models consume the trace in caller-owned batches so the hot feed loop
// reuses one DynInst array instead of copying a record out of Step per
// instruction. Records dst[:n] are valid even when err is non-nil: they
// retired before the faulting instruction.
//
// The loop body mirrors stepInto but keeps the program counter and sequence
// number in locals: execute is an opaque call, so the per-step version must
// reload and spill machine fields around it on every instruction, which the
// batched loop pays only once per batch. execute reads the PC through
// d.PC, never through the machine, keeping the locals authoritative.
func (m *Machine) Fill(dst []DynInst) (int, error) {
	if m.Halted {
		return 0, nil
	}
	code := m.Prog.Code
	pc, seq := m.PC, m.Seq
	for n := range dst {
		if pc < 0 || pc >= len(code) {
			m.PC, m.Seq = pc, seq
			if pc == len(code) {
				m.Halted = true
				return n, nil
			}
			return n, &ExecError{pc, seq, fmt.Errorf("pc out of range")}
		}
		in := code[pc]
		d := &dst[n]
		d.start(seq, int32(pc), in)
		if err := m.execute(in, d); err != nil {
			m.PC, m.Seq = pc, seq
			return n, &ExecError{pc, seq, err}
		}
		m.R[0] = 0
		pc = int(d.NextPC)
		seq++
		if in.Op == isa.HALT {
			m.Halted = true
			m.PC, m.Seq = pc, seq
			return n + 1, nil
		}
	}
	m.PC, m.Seq = pc, seq
	return len(dst), nil
}

// BudgetError reports that Run's instruction budget ran out before the
// program halted. It is distinguishable (via errors.As) from execution
// faults, so harnesses can treat "still running" differently from "crashed".
type BudgetError struct {
	Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("instruction budget %d exhausted before halt", e.Limit)
}

// Run executes until halt, or until exactly limit instructions have executed
// (limit <= 0 means no budget), and returns the number of dynamic
// instructions. A program that halts on its limit-th instruction is a clean
// halt; only a program still runnable after limit instructions yields a
// *BudgetError.
func (m *Machine) Run(limit int64) (int64, error) {
	for {
		_, ok, err := m.Step()
		if err != nil {
			return m.Seq, err
		}
		if !ok {
			return m.Seq, nil
		}
		if limit > 0 && m.Seq >= limit && !m.Halted {
			return m.Seq, &BudgetError{Limit: limit}
		}
	}
}

// setR writes v to destination register rd, preserving the hardwired zero
// of r0. It replaces a per-execute closure: as a leaf method it inlines
// into the opcode switch, which a captured closure call never did.
func (m *Machine) setR(rd uint8, v int32) {
	if rd != 0 {
		m.R[rd] = v
	}
}

func (m *Machine) execute(in isa.Inst, d *DynInst) error {
	rs, rt := m.R[in.Rs], m.R[in.Rt]
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.setR(in.Rd, rs+rt)
	case isa.SUB:
		m.setR(in.Rd, rs-rt)
	case isa.AND:
		m.setR(in.Rd, rs&rt)
	case isa.OR:
		m.setR(in.Rd, rs|rt)
	case isa.XOR:
		m.setR(in.Rd, rs^rt)
	case isa.NOR:
		m.setR(in.Rd, ^(rs | rt))
	case isa.SLL:
		m.setR(in.Rd, rs<<(uint32(rt)&31))
	case isa.SRL:
		m.setR(in.Rd, int32(uint32(rs)>>(uint32(rt)&31)))
	case isa.SRA:
		m.setR(in.Rd, rs>>(uint32(rt)&31))
	case isa.SLT:
		m.setR(in.Rd, b2i(rs < rt))
	case isa.SLTU:
		m.setR(in.Rd, b2i(uint32(rs) < uint32(rt)))
	case isa.ADDI:
		m.setR(in.Rd, rs+in.Imm)
	case isa.ANDI:
		m.setR(in.Rd, rs&in.Imm)
	case isa.ORI:
		m.setR(in.Rd, rs|in.Imm)
	case isa.XORI:
		m.setR(in.Rd, rs^in.Imm)
	case isa.SLTI:
		m.setR(in.Rd, b2i(rs < in.Imm))
	case isa.SLLI:
		m.setR(in.Rd, rs<<(uint32(in.Imm)&31))
	case isa.SRLI:
		m.setR(in.Rd, int32(uint32(rs)>>(uint32(in.Imm)&31)))
	case isa.SRAI:
		m.setR(in.Rd, rs>>(uint32(in.Imm)&31))
	case isa.LUI:
		m.setR(in.Rd, in.Imm<<16)
	case isa.MUL:
		m.setR(in.Rd, rs*rt)
	case isa.DIV:
		if rt == 0 {
			m.setR(in.Rd, 0)
		} else {
			m.setR(in.Rd, rs/rt)
		}
	case isa.REM:
		if rt == 0 {
			m.setR(in.Rd, 0)
		} else {
			m.setR(in.Rd, rs%rt)
		}
	case isa.FADD:
		m.F[in.Rd] = m.F[in.Rs] + m.F[in.Rt]
	case isa.FSUB:
		m.F[in.Rd] = m.F[in.Rs] - m.F[in.Rt]
	case isa.FMUL:
		m.F[in.Rd] = m.F[in.Rs] * m.F[in.Rt]
	case isa.FDIV:
		m.F[in.Rd] = m.F[in.Rs] / m.F[in.Rt]
	case isa.FNEG:
		m.F[in.Rd] = -m.F[in.Rs]
	case isa.FMOV:
		m.F[in.Rd] = m.F[in.Rs]
	case isa.CVTIF:
		m.F[in.Rd] = float64(m.R[in.Rs])
	case isa.CVTFI:
		v := math.Trunc(m.F[in.Rs])
		switch {
		case math.IsNaN(v):
			m.setR(in.Rd, 0)
		case v >= math.MaxInt32:
			m.setR(in.Rd, math.MaxInt32)
		case v <= math.MinInt32:
			m.setR(in.Rd, math.MinInt32)
		default:
			m.setR(in.Rd, int32(v))
		}
	case isa.FEQ:
		m.setR(in.Rd, b2i(m.F[in.Rs] == m.F[in.Rt]))
	case isa.FLT:
		m.setR(in.Rd, b2i(m.F[in.Rs] < m.F[in.Rt]))
	case isa.FLE:
		m.setR(in.Rd, b2i(m.F[in.Rs] <= m.F[in.Rt]))
	case isa.LW:
		d.Addr = uint32(rs + in.Imm)
		v, err := m.Mem.ReadWord(d.Addr)
		if err != nil {
			return err
		}
		m.setR(in.Rd, int32(v))
	case isa.SW:
		d.Addr = uint32(rs + in.Imm)
		return m.Mem.WriteWord(d.Addr, uint32(m.R[in.Rd]))
	case isa.LD:
		d.Addr = uint32(rs + in.Imm)
		v, err := m.Mem.ReadDouble(d.Addr)
		if err != nil {
			return err
		}
		m.F[in.Rd] = v
	case isa.SD:
		d.Addr = uint32(rs + in.Imm)
		return m.Mem.WriteDouble(d.Addr, m.F[in.Rd])
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		m.branch(d, in.Op.BranchCond().Holds(rs, rt), in.Imm)
	case isa.J:
		m.branch(d, true, in.Imm)
	case isa.JAL:
		m.R[isa.RegRA] = d.PC + 1
		m.branch(d, true, in.Imm)
	case isa.JR:
		d.Taken = true
		d.NextPC = rs
	case isa.JALR:
		m.setR(in.Rd, d.PC+1)
		d.Taken = true
		d.NextPC = rs
	case isa.MARK:
	case isa.OUT:
		m.Out = append(m.Out, rs)
	case isa.OUTF:
		m.OutF = append(m.OutF, m.F[in.Rs])
	case isa.HALT:
	default:
		return fmt.Errorf("unimplemented opcode %s", in.Op.Name())
	}
	return nil
}

func (m *Machine) branch(d *DynInst, taken bool, target int32) {
	d.Taken = taken
	if taken {
		d.NextPC = target
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

package absint

import "visa/internal/isa"

// step interprets one non-control instruction (plus the register effects of
// JAL/JALR). Branch direction handling lives in transfer/refineEdge.
func (fa *funcAnalysis) step(st *state, pc int) {
	in := fa.an.prog.Code[pc]
	rs, rt := st.getReg(int(in.Rs)), st.getReg(int(in.Rt))
	imm := single(in.Imm)
	set := func(v Val) {
		if fa.rec != nil && in.Rd != isa.RegZero {
			fa.rec.noteWrite(pc, v)
		}
		st.setReg(int(in.Rd), v)
	}
	switch in.Op {
	case isa.ADD:
		set(addVal(rs, rt))
	case isa.ADDI:
		set(addVal(rs, imm))
	case isa.SUB:
		set(subVal(rs, rt))
	case isa.AND:
		set(intOp(isa.AND, rs, rt))
	case isa.ANDI:
		set(intOp(isa.AND, rs, imm))
	case isa.OR:
		set(intOp(isa.OR, rs, rt))
	case isa.ORI:
		set(intOp(isa.OR, rs, imm))
	case isa.XOR:
		set(intOp(isa.XOR, rs, rt))
	case isa.XORI:
		set(intOp(isa.XOR, rs, imm))
	case isa.NOR:
		set(intOp(isa.NOR, rs, rt))
	case isa.SLL:
		set(intOp(isa.SLL, rs, rt))
	case isa.SLLI:
		set(intOp(isa.SLL, rs, imm))
	case isa.SRL:
		set(intOp(isa.SRL, rs, rt))
	case isa.SRLI:
		set(intOp(isa.SRL, rs, imm))
	case isa.SRA:
		set(intOp(isa.SRA, rs, rt))
	case isa.SRAI:
		set(intOp(isa.SRA, rs, imm))
	case isa.SLT:
		set(cmpVal(isa.CondLT, rs, rt))
	case isa.SLTI:
		set(cmpVal(isa.CondLT, rs, imm))
	case isa.SLTU:
		set(sltuVal(rs, rt))
	case isa.LUI:
		set(single(in.Imm << 16))
	case isa.MUL:
		set(intOp(isa.MUL, rs, rt))
	case isa.DIV:
		set(intOp(isa.DIV, rs, rt))
	case isa.REM:
		set(intOp(isa.REM, rs, rt))
	case isa.CVTFI, isa.FEQ, isa.FLT, isa.FLE:
		// Float sources are untracked; only the int destination shape is
		// known (comparison results are 0/1).
		if in.Op == isa.CVTFI {
			set(top())
		} else {
			set(Val{I: Interval{0, 1}})
		}
	case isa.LW:
		a := addVal(rs, imm)
		fa.noteAccess(pc, a, 4)
		set(Val{I: fa.load(st, a)})
		if k, ok := fa.exactCell(a); ok && in.Rd != isa.RegZero {
			st.orig[in.Rd] = origin{ok: true, c: k}
		}
	case isa.LD:
		a := addVal(rs, imm)
		fa.noteAccess(pc, a, 8)
	case isa.SW:
		a := addVal(rs, imm)
		fa.noteAccess(pc, a, 4)
		v := st.getReg(int(in.Rd))
		vi := v.I
		if v.SPRel {
			vi = Full() // cells hold plain intervals; drop the symbolic base
		}
		fa.store(st, a, vi, 4)
	case isa.SD:
		a := addVal(rs, imm)
		fa.noteAccess(pc, a, 8)
		fa.store(st, a, Full(), 8)
	case isa.JAL:
		v := single(int32(pc + 1))
		if fa.rec != nil {
			fa.rec.noteWrite(pc, v)
		}
		st.setReg(isa.RegRA, v)
	case isa.JALR:
		set(single(int32(pc + 1)))
	default:
		// NOP, MARK, OUT, OUTF, HALT, pure-float ops, and branches (which
		// transfer handles) leave the tracked state unchanged.
	}
}

func (fa *funcAnalysis) noteAccess(pc int, a Val, size int) {
	if fa.rec != nil {
		fa.rec.noteAddr(pc, a, size)
	}
}

// exactCell maps a singleton, word-aligned address to a tracked cell key.
// Absolute cells are tracked only inside the initialized data segment;
// MMIO words are device-backed and stack words are reached SP-relatively,
// so both stay untracked (reads yield Top, which is always sound).
func (fa *funcAnalysis) exactCell(a Val) (cell, bool) {
	v, ok := a.I.IsSingle()
	if !ok || v%4 != 0 {
		return 0, false
	}
	if a.SPRel {
		if int64(v) < -spOffsetCap || int64(v) > spOffsetCap {
			return 0, false
		}
		return spCell(int64(v)), true
	}
	addr := int64(uint32(v))
	if addr < int64(isa.DataBase) || addr >= fa.an.dataEnd {
		return 0, false
	}
	return absCell(addr), true
}

func (fa *funcAnalysis) load(st *state, a Val) Interval {
	if k, ok := fa.exactCell(a); ok {
		return st.getCell(k)
	}
	return Full()
}

// store updates abstract memory. Singleton word stores update their cell
// strongly; everything else havocs the cells the access may overlap. Any
// store invalidates register provenance for the words it may rewrite.
func (fa *funcAnalysis) store(st *state, a Val, v Interval, size int64) {
	if k, ok := fa.exactCell(a); ok {
		if size == 4 {
			st.setCell(k, v)
			st.clearOriginsAt(k)
		} else {
			k2 := k.plus(4)
			st.setCell(k, Full())
			st.setCell(k2, Full())
			st.clearOriginsAt(k)
			st.clearOriginsAt(k2)
		}
		return
	}
	st.clearOrigins()
	fa.havocRange(st, a, size)
}

// havocRange drops every tracked cell a non-exact store may touch. The
// concrete footprint is [addr, addr+size), for any addr drawn from a.
func (fa *funcAnalysis) havocRange(st *state, a Val, size int64) {
	if a.SPRel {
		if a.I.Lo < -spOffsetCap || a.I.Hi > spOffsetCap {
			// The symbolic offset escapes the window where the SP/absolute
			// keyspaces are disjoint: anything may alias.
			st.dropCells(func(cell) bool { return false })
			return
		}
		lo, hi := a.I.Lo, a.I.Hi+size-1
		st.dropCells(func(k cell) bool {
			return !k.sp() || k.addr()+3 < lo || k.addr() > hi
		})
		return
	}
	if a.I.Lo < 0 && a.I.Hi >= 0 {
		// The address range wraps through the top of the unsigned space;
		// treat it as any-address.
		st.dropCells(func(cell) bool { return false })
		return
	}
	lo, hi := int64(uint32(a.I.Lo)), int64(uint32(a.I.Hi))+size-1
	stackLo := int64(isa.StackTop) - spAliasWindow
	stackHi := int64(isa.StackTop) + spOffsetCap
	hitsStack := hi >= stackLo && lo <= stackHi
	st.dropCells(func(k cell) bool {
		if k.sp() {
			return !hitsStack
		}
		return k.addr()+3 < lo || k.addr() > hi
	})
}

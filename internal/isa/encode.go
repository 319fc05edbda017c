package isa

import "fmt"

// Binary encoding. Instructions are 32 bits:
//
//	R-format:  op[31:26] rd[25:21] rs[20:16] rt[15:11] zero[10:0]
//	I-format:  op[31:26] rd[25:21] rs[20:16] imm[15:0]   (signed; unsigned where Op.ZeroExtendsImm)
//	B-format:  op[31:26] rs[25:21] rt[20:16] off[15:0]   (signed, PC-relative)
//	J-format:  op[31:26] target[25:0]                    (absolute index)
//	M-format:  op[31:26] imm[25:0]                       (MARK)
//
// Branch offsets are relative to the next instruction, as on MIPS. The
// in-memory Inst form always carries absolute instruction indexes, so
// Encode/Decode take the instruction's own index.

// EncodeErr describes an instruction whose operands do not fit the encoding.
type EncodeErr struct {
	Inst Inst
	Why  string
}

func (e *EncodeErr) Error() string {
	return fmt.Sprintf("cannot encode %q: %s", e.Inst.String(), e.Why)
}

func fitsInt16(v int32) bool  { return v >= -32768 && v <= 32767 }
func fitsUint26(v int32) bool { return v >= 0 && v < (1<<26) }

// Encode converts inst, located at instruction index pc, to its 32-bit form.
func Encode(inst Inst, pc int) (uint32, error) {
	if int(inst.Op) >= NumOps {
		return 0, &EncodeErr{inst, "unknown opcode"}
	}
	op := uint32(inst.Op) << 26
	reg := func(r uint8) (uint32, error) {
		if r >= 32 {
			return 0, &EncodeErr{inst, fmt.Sprintf("register %d out of range", r)}
		}
		return uint32(r), nil
	}
	switch inst.Op.Format() {
	case FmtNone:
		return op, nil
	case FmtRRR, FmtFRR:
		rd, err := reg(inst.Rd)
		if err != nil {
			return 0, err
		}
		rs, err := reg(inst.Rs)
		if err != nil {
			return 0, err
		}
		rt, err := reg(inst.Rt)
		if err != nil {
			return 0, err
		}
		return op | rd<<21 | rs<<16 | rt<<11, nil
	case FmtFR, FmtJR:
		rd, err := reg(inst.Rd)
		if err != nil {
			return 0, err
		}
		rs, err := reg(inst.Rs)
		if err != nil {
			return 0, err
		}
		return op | rd<<21 | rs<<16, nil
	case FmtR:
		rs, err := reg(inst.Rs)
		if err != nil {
			return 0, err
		}
		return op | rs<<16, nil
	case FmtRRI, FmtMem, FmtRI:
		rd, err := reg(inst.Rd)
		if err != nil {
			return 0, err
		}
		rs, err := reg(inst.Rs)
		if err != nil {
			return 0, err
		}
		if !inst.Op.ImmFits(inst.Imm) {
			why := "immediate out of signed 16-bit range"
			if inst.Op.ZeroExtendsImm() {
				why = "immediate out of unsigned 16-bit range"
			}
			return 0, &EncodeErr{inst, why}
		}
		return op | rd<<21 | rs<<16 | uint32(uint16(inst.Imm)), nil
	case FmtBranch:
		rs, err := reg(inst.Rs)
		if err != nil {
			return 0, err
		}
		rt, err := reg(inst.Rt)
		if err != nil {
			return 0, err
		}
		off := inst.Imm - int32(pc) - 1
		if !fitsInt16(off) {
			return 0, &EncodeErr{inst, "branch target out of range"}
		}
		return op | rs<<21 | rt<<16 | uint32(uint16(off)), nil
	case FmtJump:
		if !fitsUint26(inst.Imm) {
			return 0, &EncodeErr{inst, "jump target out of range"}
		}
		return op | uint32(inst.Imm), nil
	case FmtImm:
		if !fitsUint26(inst.Imm) {
			return 0, &EncodeErr{inst, "immediate out of 26-bit range"}
		}
		return op | uint32(inst.Imm), nil
	}
	return 0, &EncodeErr{inst, "unknown format"}
}

// Decode converts the 32-bit form of an instruction located at instruction
// index pc back to an Inst.
func Decode(word uint32, pc int) (Inst, error) {
	op := Op(word >> 26)
	if int(op) >= NumOps {
		return Inst{}, fmt.Errorf("decode: unknown opcode %d", word>>26)
	}
	in := Inst{Op: op}
	switch op.Format() {
	case FmtNone:
	case FmtRRR, FmtFRR:
		in.Rd = uint8(word >> 21 & 31)
		in.Rs = uint8(word >> 16 & 31)
		in.Rt = uint8(word >> 11 & 31)
	case FmtFR, FmtJR:
		in.Rd = uint8(word >> 21 & 31)
		in.Rs = uint8(word >> 16 & 31)
	case FmtR:
		in.Rs = uint8(word >> 16 & 31)
	case FmtRRI, FmtMem, FmtRI:
		in.Rd = uint8(word >> 21 & 31)
		in.Rs = uint8(word >> 16 & 31)
		if op.ZeroExtendsImm() {
			in.Imm = int32(uint16(word))
		} else {
			in.Imm = int32(int16(word))
		}
	case FmtBranch:
		in.Rs = uint8(word >> 21 & 31)
		in.Rt = uint8(word >> 16 & 31)
		in.Imm = int32(pc) + 1 + int32(int16(word))
	case FmtJump, FmtImm:
		in.Imm = int32(word & (1<<26 - 1))
	}
	return in, nil
}

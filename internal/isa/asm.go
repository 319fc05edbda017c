package isa

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Assemble parses assembler source into a Program. The mini-C compiler emits
// this format; hand-written kernels and tests use it too.
//
// Syntax:
//
//	# comment                        (to end of line)
//	.data / .text                    segment switch
//	label:                           label (code or data, per segment)
//	.word v ...                      32-bit integers (data segment)
//	.double v ...                    64-bit floats, 8-byte aligned
//	.space n                         n zero bytes
//	.func name / .endfunc            function extent (code segment)
//	op operands                      one instruction
//	blt r1, r2, loop  #bound 12      loop-bound annotation on a back edge
//
// Pseudo-instructions: la rd,label; li rd,imm; mov rd,rs; ret; call f.
func Assemble(name, src string) (*Program, error) {
	a := &asmState{
		prog: &Program{
			Name:       name,
			Labels:     map[string]int{},
			DataLabels: map[string]uint32{},
			LoopBounds: map[int]int{},
		},
		patches: map[int]patch{},
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	if err := a.prog.Validate(); err != nil {
		return nil, err
	}
	return a.prog, nil
}

// MustAssemble is Assemble for sources known to be valid (tests, embedded
// benchmarks). It panics on error.
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type patch struct {
	label string
	line  int
	kind  byte // 'b' branch/jump target, 'h' la high half, 'l' la low half
}

type asmState struct {
	prog    *Program
	patches map[int]patch // instruction index -> unresolved reference
	inData  bool
	curFunc string
	fnStart int
	line    int
}

func (a *asmState) errf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", a.prog.Name, a.line, fmt.Sprintf(format, args...))
}

func (a *asmState) run(src string) error {
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		a.line = i + 1
		if err := a.doLine(raw); err != nil {
			return err
		}
	}
	if a.curFunc != "" {
		return fmt.Errorf("%s: missing .endfunc for %s", a.prog.Name, a.curFunc)
	}
	// Resolve label references now that all labels are known, in pc order
	// so the first error reported for a broken program is deterministic.
	pcs := make([]int, 0, len(a.patches))
	for pc := range a.patches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		p := a.patches[pc]
		a.line = p.line
		in := &a.prog.Code[pc]
		switch p.kind {
		case 'b':
			t, ok := a.prog.Labels[p.label]
			if !ok {
				return a.errf("undefined code label %q", p.label)
			}
			in.Imm = int32(t)
		case 'h', 'l':
			addr, ok := a.prog.DataLabels[p.label]
			if !ok {
				return a.errf("undefined data label %q", p.label)
			}
			if p.kind == 'h' {
				in.Imm = int32(addr >> 16)
			} else {
				in.Imm = int32(addr & 0xffff)
			}
		}
	}
	return nil
}

func (a *asmState) doLine(raw string) error {
	text := raw
	bound := -1
	if idx := strings.IndexByte(text, '#'); idx >= 0 {
		comment := strings.TrimSpace(text[idx+1:])
		text = text[:idx]
		if rest, ok := strings.CutPrefix(comment, "bound "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || n < 0 {
				return a.errf("bad #bound annotation %q", comment)
			}
			bound = n
		}
	}
	text = strings.TrimSpace(text)
	if text == "" {
		return nil
	}
	// Labels may share a line with a directive or instruction.
	for {
		idx := strings.IndexByte(text, ':')
		if idx < 0 {
			break
		}
		label := strings.TrimSpace(text[:idx])
		if !isIdent(label) {
			return a.errf("bad label %q", label)
		}
		if err := a.defineLabel(label); err != nil {
			return err
		}
		text = strings.TrimSpace(text[idx+1:])
	}
	if text == "" {
		return nil
	}
	if strings.HasPrefix(text, ".") {
		return a.directive(text)
	}
	if a.inData {
		return a.errf("instruction %q in data segment", text)
	}
	pcBefore := len(a.prog.Code)
	if err := a.instruction(text); err != nil {
		return err
	}
	if bound >= 0 {
		// The annotation attaches to the (single) branch this line emitted.
		a.prog.LoopBounds[pcBefore] = bound
	}
	return nil
}

func (a *asmState) defineLabel(label string) error {
	if a.inData {
		if _, dup := a.prog.DataLabels[label]; dup {
			return a.errf("duplicate data label %q", label)
		}
		a.prog.DataLabels[label] = DataBase + uint32(len(a.prog.Data))
		return nil
	}
	if _, dup := a.prog.Labels[label]; dup {
		return a.errf("duplicate label %q", label)
	}
	a.prog.Labels[label] = len(a.prog.Code)
	return nil
}

func (a *asmState) directive(text string) error {
	fields := strings.Fields(text)
	switch fields[0] {
	case ".data":
		a.inData = true
	case ".text":
		a.inData = false
	case ".word":
		if !a.inData {
			return a.errf(".word outside data segment")
		}
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
				return a.errf("bad .word value %q", f)
			}
			a.prog.Data = binary.LittleEndian.AppendUint32(a.prog.Data, uint32(v))
		}
	case ".double":
		if !a.inData {
			return a.errf(".double outside data segment")
		}
		before := uint32(len(a.prog.Data))
		for len(a.prog.Data)%8 != 0 {
			a.prog.Data = append(a.prog.Data, 0)
		}
		// Re-point labels that were defined at the unaligned offset (i.e.
		// the label on this very .double line) to the aligned position.
		if after := uint32(len(a.prog.Data)); after != before {
			for l, addr := range a.prog.DataLabels {
				if addr == DataBase+before {
					a.prog.DataLabels[l] = DataBase + after
				}
			}
		}
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return a.errf("bad .double value %q", f)
			}
			a.prog.Data = binary.LittleEndian.AppendUint64(a.prog.Data, math.Float64bits(v))
		}
	case ".space":
		if !a.inData {
			return a.errf(".space outside data segment")
		}
		if len(fields) != 2 {
			return a.errf(".space needs a size")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return a.errf("bad .space size %q", fields[1])
		}
		a.prog.Data = append(a.prog.Data, make([]byte, n)...)
	case ".func":
		if a.inData {
			return a.errf(".func in data segment")
		}
		if a.curFunc != "" {
			return a.errf(".func %s inside %s", fields[1], a.curFunc)
		}
		if len(fields) != 2 || !isIdent(fields[1]) {
			return a.errf("bad .func")
		}
		a.curFunc = fields[1]
		a.fnStart = len(a.prog.Code)
		if err := a.defineLabel(fields[1]); err != nil {
			return err
		}
	case ".endfunc":
		if a.curFunc == "" {
			return a.errf(".endfunc without .func")
		}
		if len(a.prog.Code) == a.fnStart {
			return a.errf("empty function %s", a.curFunc)
		}
		a.prog.Funcs = append(a.prog.Funcs, FuncInfo{a.curFunc, a.fnStart, len(a.prog.Code)})
		a.curFunc = ""
	default:
		return a.errf("unknown directive %q", fields[0])
	}
	return nil
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		m[op.Name()] = op
	}
	return m
}()

func (a *asmState) instruction(text string) error {
	mnemonic, rest, _ := strings.Cut(text, " ")
	ops := splitOperands(rest)
	emit := func(in Inst) { a.prog.Code = append(a.prog.Code, in) }

	// Pseudo-instructions first.
	switch mnemonic {
	case "la":
		if len(ops) != 2 || !isIdent(ops[1]) {
			return a.errf("la wants rd, label")
		}
		rd, err := a.intReg(ops[0])
		if err != nil {
			return err
		}
		a.patches[len(a.prog.Code)] = patch{ops[1], a.line, 'h'}
		emit(Inst{Op: LUI, Rd: rd})
		a.patches[len(a.prog.Code)] = patch{ops[1], a.line, 'l'}
		emit(Inst{Op: ORI, Rd: rd, Rs: rd})
		return nil
	case "li":
		if len(ops) != 2 {
			return a.errf("li wants rd, imm")
		}
		rd, err := a.intReg(ops[0])
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(ops[1], 0, 64)
		if err != nil || v < math.MinInt32 || v > math.MaxUint32 {
			return a.errf("bad li immediate %q", ops[1])
		}
		if fitsInt16(int32(v)) {
			emit(Inst{Op: ADDI, Rd: rd, Imm: int32(v)})
		} else {
			emit(Inst{Op: LUI, Rd: rd, Imm: int32(uint32(v) >> 16)})
			if lo := int32(uint32(v) & 0xffff); lo != 0 {
				emit(Inst{Op: ORI, Rd: rd, Rs: rd, Imm: lo})
			}
		}
		return nil
	case "mov":
		if len(ops) != 2 {
			return a.errf("mov wants rd, rs")
		}
		rd, err := a.intReg(ops[0])
		if err != nil {
			return err
		}
		rs, err := a.intReg(ops[1])
		if err != nil {
			return err
		}
		emit(Inst{Op: ADD, Rd: rd, Rs: rs})
		return nil
	case "ret":
		emit(Inst{Op: JR, Rs: RegRA})
		return nil
	case "call":
		if len(ops) != 1 || !isIdent(ops[0]) {
			return a.errf("call wants a function label")
		}
		a.patches[len(a.prog.Code)] = patch{ops[0], a.line, 'b'}
		emit(Inst{Op: JAL})
		return nil
	}

	op, ok := opByName[mnemonic]
	if !ok {
		return a.errf("unknown mnemonic %q", mnemonic)
	}
	in := Inst{Op: op}
	want := func(n int) error {
		if len(ops) != n {
			return a.errf("%s wants %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}
	var err error
	switch op.Format() {
	case FmtNone:
		err = want(0)
	case FmtRRR:
		if err = want(3); err == nil {
			in.Rd, in.Rs, in.Rt, err = a.rrr(ops)
		}
	case FmtRRI:
		if err = want(3); err == nil {
			if in.Rd, err = a.intReg(ops[0]); err == nil {
				if in.Rs, err = a.intReg(ops[1]); err == nil {
					in.Imm, err = a.imm16(ops[2], op)
				}
			}
		}
	case FmtRI:
		if err = want(2); err == nil {
			if in.Rd, err = a.intReg(ops[0]); err == nil {
				in.Imm, err = a.imm16(ops[1], op)
			}
		}
	case FmtFRR:
		if err = want(3); err == nil {
			if op == FEQ || op == FLT || op == FLE {
				if in.Rd, err = a.intReg(ops[0]); err == nil {
					if in.Rs, err = a.fpReg(ops[1]); err == nil {
						in.Rt, err = a.fpReg(ops[2])
					}
				}
			} else {
				if in.Rd, err = a.fpReg(ops[0]); err == nil {
					if in.Rs, err = a.fpReg(ops[1]); err == nil {
						in.Rt, err = a.fpReg(ops[2])
					}
				}
			}
		}
	case FmtFR:
		if err = want(2); err == nil {
			switch op {
			case CVTIF:
				if in.Rd, err = a.fpReg(ops[0]); err == nil {
					in.Rs, err = a.intReg(ops[1])
				}
			case CVTFI:
				if in.Rd, err = a.intReg(ops[0]); err == nil {
					in.Rs, err = a.fpReg(ops[1])
				}
			default:
				if in.Rd, err = a.fpReg(ops[0]); err == nil {
					in.Rs, err = a.fpReg(ops[1])
				}
			}
		}
	case FmtMem:
		if err = want(2); err == nil {
			if op == LD || op == SD {
				in.Rd, err = a.fpReg(ops[0])
			} else {
				in.Rd, err = a.intReg(ops[0])
			}
			if err == nil {
				in.Imm, in.Rs, err = a.memOperand(ops[1])
			}
		}
	case FmtBranch:
		if err = want(3); err == nil {
			if in.Rs, err = a.intReg(ops[0]); err == nil {
				if in.Rt, err = a.intReg(ops[1]); err == nil {
					err = a.target(ops[2], &in, len(a.prog.Code))
				}
			}
		}
	case FmtJump:
		if err = want(1); err == nil {
			err = a.target(ops[0], &in, len(a.prog.Code))
		}
	case FmtJR:
		if op == JALR {
			if err = want(2); err == nil {
				if in.Rd, err = a.intReg(ops[0]); err == nil {
					in.Rs, err = a.intReg(ops[1])
				}
			}
		} else if err = want(1); err == nil {
			in.Rs, err = a.intReg(ops[0])
		}
	case FmtR:
		if err = want(1); err == nil {
			if op == OUTF {
				in.Rs, err = a.fpReg(ops[0])
			} else {
				in.Rs, err = a.intReg(ops[0])
			}
		}
	case FmtImm:
		if err = want(1); err == nil {
			var v int64
			v, err = strconv.ParseInt(ops[0], 0, 32)
			if err != nil || v < 0 {
				err = a.errf("bad immediate %q", ops[0])
			}
			in.Imm = int32(v)
		}
	}
	if err != nil {
		return err
	}
	if op == MARK {
		a.prog.Marks = append(a.prog.Marks, len(a.prog.Code))
	}
	emit(in)
	return nil
}

func (a *asmState) rrr(ops []string) (rd, rs, rt uint8, err error) {
	if rd, err = a.intReg(ops[0]); err != nil {
		return
	}
	if rs, err = a.intReg(ops[1]); err != nil {
		return
	}
	rt, err = a.intReg(ops[2])
	return
}

func (a *asmState) intReg(s string) (uint8, error) { return a.reg(s, 'r') }
func (a *asmState) fpReg(s string) (uint8, error)  { return a.reg(s, 'f') }

func (a *asmState) reg(s string, prefix byte) (uint8, error) {
	if len(s) < 2 || s[0] != prefix {
		return 0, a.errf("bad %c-register %q", prefix, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, a.errf("bad register %q", s)
	}
	return uint8(n), nil
}

// imm16 parses op's 16-bit immediate operand s, signed or unsigned by
// op's convention (see Op.ZeroExtendsImm).
func (a *asmState) imm16(s string, op Op) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 32)
	if err != nil || !op.ImmFits(int32(v)) {
		if op.ZeroExtendsImm() {
			return 0, a.errf("immediate %q out of unsigned 16-bit range", s)
		}
		return 0, a.errf("immediate %q out of 16-bit range", s)
	}
	return int32(v), nil
}

// memOperand parses "disp(rN)".
func (a *asmState) memOperand(s string) (int32, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("bad memory operand %q", s)
	}
	disp := int32(0)
	if d := strings.TrimSpace(s[:open]); d != "" {
		v, err := a.imm16(d, LW)
		if err != nil {
			return 0, 0, err
		}
		disp = v
	}
	base, err := a.intReg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return disp, base, nil
}

func (a *asmState) target(s string, in *Inst, pc int) error {
	if n, err := strconv.Atoi(s); err == nil {
		in.Imm = int32(n)
		return nil
	}
	if !isIdent(s) {
		return a.errf("bad target %q", s)
	}
	if t, ok := a.prog.Labels[s]; ok {
		in.Imm = int32(t)
		return nil
	}
	a.patches[pc] = patch{s, a.line, 'b'}
	return nil
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

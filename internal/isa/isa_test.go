package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpMetadata(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.Name() == "" {
			t.Errorf("op %d has no name", op)
		}
		if op.Latency() < 1 {
			t.Errorf("op %s has latency %d", op.Name(), op.Latency())
		}
	}
	if ADD.Latency() != 1 || MUL.Latency() != 6 || DIV.Latency() != 35 {
		t.Errorf("integer latencies wrong: add=%d mul=%d div=%d", ADD.Latency(), MUL.Latency(), DIV.Latency())
	}
	if FADD.Latency() != 2 || FMUL.Latency() != 2 || FDIV.Latency() != 12 {
		t.Errorf("FP latencies wrong: fadd=%d fmul=%d fdiv=%d", FADD.Latency(), FMUL.Latency(), FDIV.Latency())
	}
}

func TestBranchClassification(t *testing.T) {
	cases := []struct {
		op   Op
		br   bool
		cond bool
	}{
		{BEQ, true, true}, {BNE, true, true}, {BLT, true, true}, {BGE, true, true},
		{J, true, false}, {JAL, true, false}, {JR, true, false}, {JALR, true, false},
		{ADD, false, false}, {LW, false, false}, {MARK, false, false},
	}
	for _, c := range cases {
		if c.op.IsBranch() != c.br {
			t.Errorf("%s: IsBranch=%v want %v", c.op.Name(), c.op.IsBranch(), c.br)
		}
		if c.op.IsCondBranch() != c.cond {
			t.Errorf("%s: IsCondBranch=%v want %v", c.op.Name(), c.op.IsCondBranch(), c.cond)
		}
	}
}

// randomInst builds a random structurally valid instruction at pc, within
// encodable ranges.
func randomInst(r *rand.Rand, pc int) Inst {
	for {
		op := Op(r.Intn(NumOps))
		in := Inst{Op: op, Rd: uint8(r.Intn(32)), Rs: uint8(r.Intn(32)), Rt: uint8(r.Intn(32))}
		switch op.Format() {
		case FmtNone:
			in.Rd, in.Rs, in.Rt = 0, 0, 0
		case FmtRRR, FmtFRR:
		case FmtFR, FmtJR:
			in.Rt = 0
		case FmtR:
			in.Rd, in.Rt = 0, 0
		case FmtRRI, FmtMem, FmtRI:
			in.Rt = 0
			in.Imm = int32(int16(r.Uint32()))
			if op.ZeroExtendsImm() {
				in.Imm = int32(uint16(in.Imm))
			}
			if op.Format() == FmtRI {
				in.Rs = 0
			}
		case FmtBranch:
			in.Rd = 0
			in.Imm = int32(pc + 1 + int(int16(r.Uint32())))
			if in.Imm < 0 {
				continue
			}
		case FmtJump:
			in.Rd, in.Rs, in.Rt = 0, 0, 0
			in.Imm = int32(r.Intn(1 << 26))
		case FmtImm:
			in.Rd, in.Rs, in.Rt = 0, 0, 0
			in.Imm = int32(r.Intn(1 << 26))
		}
		return in
	}
}

// TestEncodeDecodeRoundTrip is the property test that the binary encoding is
// lossless for every instruction format.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(pcSeed uint16) bool {
		pc := int(pcSeed)
		in := randomInst(r, pc)
		w, err := Encode(in, pc)
		if err != nil {
			t.Logf("encode %v: %v", in, err)
			return false
		}
		got, err := Decode(w, pc)
		if err != nil {
			t.Logf("decode %v: %v", in, err)
			return false
		}
		if got != in {
			t.Logf("roundtrip %v -> %#x -> %v", in, w, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	cases := []struct {
		in Inst
		pc int
	}{
		{Inst{Op: ADDI, Rd: 1, Imm: 1 << 20}, 0},
		{Inst{Op: BEQ, Imm: 1 << 20}, 0},
		{Inst{Op: J, Imm: -1}, 0},
		{Inst{Op: ADD, Rd: 40}, 0},
		{Inst{Op: ADDI, Rd: 1, Imm: 32768}, 0}, // signed field
		{Inst{Op: ORI, Rd: 1, Imm: -1}, 0},     // unsigned field
		{Inst{Op: LUI, Rd: 1, Imm: 65536}, 0},
	}
	for _, c := range cases {
		if _, err := Encode(c.in, c.pc); err == nil {
			t.Errorf("Encode(%v) succeeded, want error", c.in)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Rs: 2, Imm: -5}, "addi r1, r2, -5"},
		{Inst{Op: LW, Rd: 3, Rs: 29, Imm: 8}, "lw r3, 8(r29)"},
		{Inst{Op: SD, Rd: 2, Rs: 4, Imm: 16}, "sd f2, 16(r4)"},
		{Inst{Op: BEQ, Rs: 1, Rt: 2, Imm: 7}, "beq r1, r2, @7"},
		{Inst{Op: FLT, Rd: 1, Rs: 2, Rt: 3}, "flt r1, f2, f3"},
		{Inst{Op: JR, Rs: 31}, "jr r31"},
		{Inst{Op: MARK, Imm: 3}, "mark 3"},
		{Inst{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSourcesAndDests(t *testing.T) {
	var buf [2]uint8
	in := Inst{Op: SW, Rd: 5, Rs: 6, Imm: 4}
	src := in.IntSources(buf[:])
	if len(src) != 2 || src[0] != 6 || src[1] != 5 {
		t.Errorf("SW sources = %v, want [6 5]", src)
	}
	if in.HasIntDest() {
		t.Error("SW should have no int dest")
	}
	in = Inst{Op: JAL, Imm: 10}
	if !in.HasIntDest() || in.IntDest() != RegRA {
		t.Error("JAL should write RA")
	}
	in = Inst{Op: LD, Rd: 3, Rs: 4}
	if !in.HasFPDest() || in.HasIntDest() {
		t.Error("LD should write an FP register only")
	}
	in = Inst{Op: CVTFI, Rd: 3, Rs: 4}
	if !in.HasIntDest() || in.HasFPDest() {
		t.Error("CVTFI writes an int register")
	}
	fsrc := in.FPSources(buf[:])
	if len(fsrc) != 1 || fsrc[0] != 4 {
		t.Errorf("CVTFI FP sources = %v", fsrc)
	}
	// Writes to r0 are not destinations.
	in = Inst{Op: ADD, Rd: 0, Rs: 1, Rt: 2}
	if in.HasIntDest() {
		t.Error("write to r0 is not a destination")
	}
}

const asmSample = `
# sample program covering the assembler surface
.data
vec:    .word 1 2 3 4
scale:  .double 2.5
buf:    .space 32
.text
.func main
        mark 0
        li r1, 4            # loop count
        la r2, vec
        li r3, 0            # sum
        li r4, 0            # i
loop:
        lw r5, 0(r2)
        add r3, r3, r5
        addi r2, r2, 4
        addi r4, r4, 1
        blt r4, r1, loop    #bound 4
        mark 1
        out r3
        la r6, scale
        ld f1, 0(r6)
        cvtif f2, r3
        fmul f3, f1, f2
        outf f3
        call helper
        out r2
        halt
.endfunc
.func helper
        addi r2, r0, 42
        ret
.endfunc
`

func TestAssemble(t *testing.T) {
	p, err := Assemble("sample", asmSample)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 || p.Funcs[0].Name != "main" || p.Funcs[1].Name != "helper" {
		t.Fatalf("functions = %+v", p.Funcs)
	}
	if len(p.Marks) != 2 || p.NumSubTasks() != 2 {
		t.Fatalf("marks = %v", p.Marks)
	}
	if len(p.LoopBounds) != 1 {
		t.Fatalf("loop bounds = %v", p.LoopBounds)
	}
	for pc, b := range p.LoopBounds {
		if b != 4 {
			t.Errorf("bound = %d, want 4", b)
		}
		if p.Code[pc].Op != BLT {
			t.Errorf("bound attached to %s", p.Code[pc].Op.Name())
		}
		if int(p.Code[pc].Imm) != p.Labels["loop"] {
			t.Errorf("back edge target %d != loop label %d", p.Code[pc].Imm, p.Labels["loop"])
		}
	}
	if got := p.DataLabels["scale"] % 8; got != 0 {
		t.Errorf("scale not 8-byte aligned: %#x", p.DataLabels["scale"])
	}
	if f, ok := p.FuncAt(p.Labels["helper"]); !ok || f.Name != "helper" {
		t.Errorf("FuncAt(helper) = %+v, %v", f, ok)
	}
	dis := p.Disassemble()
	if !strings.Contains(dis, "loop:") || !strings.Contains(dis, "#bound 4") {
		t.Errorf("disassembly missing labels/bounds:\n%s", dis)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		".text\n.func f\nbadop r1, r2\n.endfunc",
		".text\n.func f\nadd r1, r2\n.endfunc",                 // operand count
		".text\n.func f\nadd r1, r2, r99\n.endfunc",            // register range
		".text\n.func f\nj nowhere\n.endfunc",                  // undefined label
		".text\n.func f\naddi r1, r0, 99999\n.endfunc",         // imm range
		".text\n.func f\nadd r1, r0, r0\n",                     // missing endfunc
		".text\n.func f\nx: add r1, r0, r0\nx: halt\n.endfunc", // dup label
		".data\nadd r1, r0, r0",                                // inst in data
		".text\n.func f\nlw r1, 4[r2]\n.endfunc",               // bad mem operand
	}
	for _, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestValidateCatchesBadMarks(t *testing.T) {
	p := MustAssemble("m", ".text\n.func main\nmark 0\nhalt\n.endfunc")
	p.Code[0].Imm = 5 // corrupt the mark index
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted corrupt mark index")
	}
}

package exec

import "visa/internal/isa"

// maxTraceLen caps the number of records Record keeps. A run that is still
// going past it yields a *BudgetError rather than unbounded memory growth.
const maxTraceLen = 1 << 26

// Trace is one run's committed instruction stream, recorded once so that
// later runs of the same program on the same input can replay it instead
// of executing. The machine is a pure function of its program and initial
// memory, so the stream of every such run is the same; only the timing
// models consuming it differ from run to run.
//
// The encoding keeps about four bytes per record. vals[i] is the effective
// address of a load or store and the successor PC of anything else (a
// memory operation always falls through); the mem and taken bitsets tell
// which it is and carry the branch outcome. PC, Seq and the static
// instruction are re-derived on replay from the start PC and the program.
type Trace struct {
	code  []isa.Inst
	pc0   int32
	seq0  int64
	vals  []uint32
	mem   []uint64
	taken []uint64
	err   error // terminal *ExecError; nil when the run halted
}

// Record runs m, which must be reset (and seeded, if its input is), until
// it halts or faults, and returns its committed stream. A fault is part of
// the stream: the trace replays it as the same *ExecError after the same
// records. The only error Record itself returns is a *BudgetError for a run
// longer than maxTraceLen. m is left where the run stopped.
func Record(m *Machine) (*Trace, error) {
	t := &Trace{code: m.Prog.Code, pc0: int32(m.PC), seq0: m.Seq}
	var (
		vals       []uint32
		mem, taken []uint64
		batch      [256]DynInst
	)
	for {
		n, ferr := m.Fill(batch[:])
		if len(vals)+n > maxTraceLen {
			return nil, &BudgetError{Limit: maxTraceLen}
		}
		for i := range batch[:n] {
			d := &batch[i]
			j := len(vals)
			if j&63 == 0 {
				mem = append(mem, 0)
				taken = append(taken, 0)
			}
			if d.Inst.Op.IsMem() {
				mem[j>>6] |= 1 << (j & 63)
				vals = append(vals, d.Addr)
			} else {
				vals = append(vals, uint32(d.NextPC))
			}
			if d.Taken {
				taken[j>>6] |= 1 << (j & 63)
			}
		}
		if ferr != nil || n < len(batch) {
			t.err = ferr
			break
		}
	}
	// Copy out of the append-grown arrays: traces live as long as the
	// program's set-up, so growth slack would be held for good.
	t.vals = append(make([]uint32, 0, len(vals)), vals...)
	t.mem = append(make([]uint64, 0, len(mem)), mem...)
	t.taken = append(make([]uint64, 0, len(taken)), taken...)
	return t, nil
}

// Len returns the number of records in the trace.
func (t *Trace) Len() int { return len(t.vals) }

// Reader replays a Trace from its first record. Readers are independent
// values; any number of them may replay one trace concurrently, since
// replay never writes to the trace.
type Reader struct {
	t  *Trace
	i  int   // next record
	pc int32 // its PC
}

// NewReader returns a reader positioned at the trace's first record.
func (t *Trace) NewReader() Reader { return Reader{t: t, pc: t.pc0} }

// Fill has Machine.Fill's contract for the recorded run: it writes the
// same records in the same batches, returns the same short batch at halt,
// and returns the same terminal *ExecError after the same records.
//
// Two rules keep it several times cheaper than executing. Each field is
// written in place (see DynInst.start), and the loop-carried successor PC
// is selected by the mem bit alone, so it never waits on the instruction
// or opcode-table loads.
//
//visa:hotpath
func (r *Reader) Fill(dst []DynInst) (int, error) {
	t := r.t
	i, pc := r.i, r.pc
	want := len(dst)
	vals := t.vals[i:]
	if len(vals) > want {
		vals = vals[:want]
	}
	dst = dst[:len(vals)]
	code, mem, taken := t.code, t.mem, t.taken
	seq := t.seq0 + int64(i)
	for k, v := range vals {
		j := i + k
		bit := uint64(1) << (j & 63)
		next, addr := int32(v), uint32(0)
		if mem[j>>6]&bit != 0 {
			next, addr = pc+1, v
		}
		d := &dst[k]
		d.Seq = seq + int64(k)
		d.PC = pc
		d.Addr = addr
		d.Inst = code[pc]
		d.NextPC = next
		d.Taken = taken[j>>6]&bit != 0
		pc = next
	}
	n := len(vals)
	r.i, r.pc = i+n, pc
	if n < want {
		return n, t.err
	}
	return n, nil
}

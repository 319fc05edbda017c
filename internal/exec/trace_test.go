package exec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/exec"
	"visa/internal/isa"
)

// fillBatchSizes covers a one-record batch, a size that never divides the
// stream evenly, the harness's batch and a batch larger than it.
var fillBatchSizes = []int{1, 7, 64, 256}

// fillCall is one Fill call's outcome.
type fillCall struct {
	recs []exec.DynInst
	err  error
}

// drain calls fill with n-record batches until it reports a halt or a
// fault, and then once more, so a reader that mishandles the end of its
// stream shows up as a difference in that extra call.
func drain(fill func([]exec.DynInst) (int, error), n int) []fillCall {
	var calls []fillCall
	dst := make([]exec.DynInst, n)
	for done := false; ; {
		k, err := fill(dst)
		calls = append(calls, fillCall{append([]exec.DynInst(nil), dst[:k]...), err})
		if done {
			return calls
		}
		done = err != nil || k < n
	}
}

// sameErr compares two Fill errors by position and cause.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ea, eb *exec.ExecError
	if !errors.As(a, &ea) || !errors.As(b, &eb) {
		return false
	}
	return ea.PC == eb.PC && ea.Seq == eb.Seq && ea.Err.Error() == eb.Err.Error()
}

// checkRoundTrip records prog's run (after prep, if any, seeds the fresh
// machine) and asserts that replaying the trace matches a live machine call
// for call at every batch size. It returns the live run's terminal error.
func checkRoundTrip(t *testing.T, prog *isa.Program, prep func(*exec.Machine) error) error {
	t.Helper()
	machine := func() *exec.Machine {
		m := exec.New(prog)
		if prep != nil {
			if err := prep(m); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	tr, err := exec.Record(machine())
	if err != nil {
		t.Fatalf("%s: Record: %v", prog.Name, err)
	}
	var terminal error
	for _, bs := range fillBatchSizes {
		live := drain(machine().Fill, bs)
		rd := tr.NewReader()
		replay := drain(rd.Fill, bs)
		if len(live) != len(replay) {
			t.Fatalf("%s/batch %d: %d live Fill calls, %d replayed", prog.Name, bs, len(live), len(replay))
		}
		var total int
		for c := range live {
			l, r := live[c], replay[c]
			if len(l.recs) != len(r.recs) || !sameErr(l.err, r.err) {
				t.Fatalf("%s/batch %d call %d: live (%d, %v), replay (%d, %v)",
					prog.Name, bs, c, len(l.recs), l.err, len(r.recs), r.err)
			}
			for k := range l.recs {
				if l.recs[k] != r.recs[k] {
					t.Fatalf("%s/batch %d record %d: live %+v, replay %+v",
						prog.Name, bs, total+k, l.recs[k], r.recs[k])
				}
			}
			total += len(l.recs)
		}
		if total != tr.Len() {
			t.Fatalf("%s/batch %d: %d records, trace has %d", prog.Name, bs, total, tr.Len())
		}
		terminal = live[len(live)-1].err
	}
	return terminal
}

func TestTraceRoundTripBenchmarks(t *testing.T) {
	for _, b := range clab.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRoundTrip(t, prog, nil); err != nil {
			t.Errorf("%s faulted: %v", b.Name, err)
		}
	}
	// A seeded input is a different stream, recorded from the seeded machine.
	prog, err := clab.Cnt.Program()
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, prog, func(m *exec.Machine) error { return clab.SetSeed(m, 4242) })
}

func TestTraceRoundTripGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		prog, err := conform.GenProgram(seed).Program()
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, prog, nil)
	}
}

// countedSrc is a k-trip loop followed by tail. An odd k gets one extra
// leading instruction, so over consecutive k the tail starts at every
// record position rather than every other one.
func countedSrc(k int, tail string) string {
	var b strings.Builder
	b.WriteString(".data\nbuf: .word 0 0 0 0\n.text\n.func main\n")
	if k%2 == 1 {
		b.WriteString("    nop\n")
	}
	fmt.Fprintf(&b, "    li r2, %d\n    la r6, buf\nloop:\n", k)
	b.WriteString("    sw r2, 0(r6)\n    addi r2, r2, -1\n    blt r0, r2, loop\n")
	b.WriteString(tail)
	b.WriteString(".endfunc\n")
	return b.String()
}

func TestTraceRoundTripFaults(t *testing.T) {
	tails := map[string]string{
		"misaligned-load":  "    lw r3, 2(r6)\n    halt\n",
		"misaligned-store": "    sd f1, 4(r6)\n    halt\n",
		"pc-out-of-range":  "    li r3, 100000\n    jr r3\n",
		"negative-pc":      "    li r3, -5\n    jr r3\n",
	}
	for name, tail := range tails {
		for k := 1; k <= 70; k++ {
			prog := isa.MustAssemble(fmt.Sprintf("%s-%d", name, k), countedSrc(k, tail))
			if err := checkRoundTrip(t, prog, nil); err == nil {
				t.Fatalf("%s (k=%d) did not fault", name, k)
			}
		}
	}
	// A fault on the very first instruction leaves an empty stream.
	prog := isa.MustAssemble("first-faults", ".text\n.func main\n    lw r3, 2(r0)\n    halt\n.endfunc\n")
	if err := checkRoundTrip(t, prog, nil); err == nil {
		t.Fatal("first-faults did not fault")
	}
}

func TestTraceRoundTripHalts(t *testing.T) {
	// Both ways a run ends cleanly, with the last record landing on every
	// position relative to each batch size.
	for _, tail := range []string{"    halt\n", "    ret\n"} {
		for k := 1; k <= 70; k++ {
			prog := isa.MustAssemble(fmt.Sprintf("halt-%d", k), countedSrc(k, tail))
			if err := checkRoundTrip(t, prog, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// computedJumpSrc jumps through registers loaded from memory: a JR skips a
// block, a JALR calls a helper that returns through the JALR's link
// register, and the loop runs four times. The indices in tbl name the
// instructions at labels tgt (9) and helper (15).
const computedJumpSrc = `
.data
tbl: .word 9 15
.text
.func main
    li r1, 0
    li r2, 4
    la r6, tbl
loop:
    lw r3, 0(r6)
    jr r3
    addi r1, r1, 100
    addi r1, r1, 100
    nop
tgt:
    lw r4, 4(r6)
    jalr r5, r4
    addi r2, r2, -1
    bne r2, r0, loop
    out r1
    halt
helper:
    addi r1, r1, 1
    jr r5
.endfunc
`

func TestTraceRoundTripComputedJumps(t *testing.T) {
	prog := isa.MustAssemble("computed", computedJumpSrc)
	if err := checkRoundTrip(t, prog, nil); err != nil {
		t.Fatal(err)
	}
	m := exec.New(prog)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(m.Out) != 1 || m.Out[0] != 4 {
		t.Fatalf("Out = %v, want [4]: the jump table no longer names tgt and helper", m.Out)
	}
}

func TestTraceRoundTripBranchToNext(t *testing.T) {
	// A taken branch whose target is its own fall-through: NextPC is PC+1
	// and Taken is still true, which the encoding must not conflate.
	prog := isa.MustAssemble("branch-next", `
.text
.func main
    beq r0, r0, next
next:
    bne r0, r0, next
    halt
.endfunc
`)
	checkRoundTrip(t, prog, nil)
	tr, err := exec.Record(exec.New(prog))
	if err != nil {
		t.Fatal(err)
	}
	rd := tr.NewReader()
	var dst [4]exec.DynInst
	if n, err := rd.Fill(dst[:]); n != 3 || err != nil {
		t.Fatalf("Fill = %d, %v; want 3 records and a halt", n, err)
	}
	if d := dst[0]; !d.Taken || d.NextPC != d.PC+1 {
		t.Fatalf("branch to PC+1 replayed as %+v", d)
	}
	if d := dst[1]; d.Taken || d.NextPC != d.PC+1 {
		t.Fatalf("untaken branch replayed as %+v", d)
	}
}

// benchPrograms is the six benchmarks' programs.
func benchPrograms(b *testing.B) []*isa.Program {
	var progs []*isa.Program
	for _, bm := range clab.All() {
		p, err := bm.Program()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// BenchmarkFill times live execution of all six benchmarks in 64-record
// batches, as the harness runs a task with a varied input seed.
func BenchmarkFill(b *testing.B) {
	progs := benchPrograms(b)
	machines := make([]*exec.Machine, len(progs))
	for i, p := range progs {
		machines[i] = exec.New(p)
	}
	var dst [64]exec.DynInst
	var insts int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, m := range machines {
			m.Reset()
			for {
				n, err := m.Fill(dst[:])
				insts += int64(n)
				if err != nil {
					b.Fatal(err)
				}
				if n < len(dst) {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkReplay times replaying the six benchmarks' recorded streams in
// 64-record batches, as the harness runs a task on its recorded input.
func BenchmarkReplay(b *testing.B) {
	var traces []*exec.Trace
	for _, p := range benchPrograms(b) {
		tr, err := exec.Record(exec.New(p))
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	var dst [64]exec.DynInst
	var insts int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, tr := range traces {
			rd := tr.NewReader()
			for {
				n, err := rd.Fill(dst[:])
				insts += int64(n)
				if err != nil {
					b.Fatal(err)
				}
				if n < len(dst) {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

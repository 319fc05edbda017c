package clab

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"visa/internal/exec"
	"visa/internal/isa"
)

// mustProgram compiles the benchmark, failing the test on error.
func mustProgram(tb testing.TB, b *Benchmark) *isa.Program {
	tb.Helper()
	prog, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(all))
	}
	// Sub-task counts from Table 3.
	want := map[string]int{"adpcm": 8, "cnt": 5, "fft": 10, "lms": 10, "mm": 10, "srt": 10}
	for _, b := range all {
		if want[b.Name] != b.SubTasks {
			t.Errorf("%s: SubTasks = %d, want %d (Table 3)", b.Name, b.SubTasks, want[b.Name])
		}
		if ByName(b.Name) != b {
			t.Errorf("ByName(%s) broken", b.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

// TestLoad: a benchmark name resolves to the cached benchmark program, any
// other argument is compiled as a mini-C file named by its path, and a name
// that is neither lists the benchmarks in its error.
func TestLoad(t *testing.T) {
	fft := mustProgram(t, ByName("fft"))
	if p, err := Load("fft"); err != nil || p != fft {
		t.Errorf("Load(fft) = %p, %v; want the cached benchmark program %p", p, err, fft)
	}

	path := filepath.Join(t.TempDir(), "task.c")
	if err := os.WriteFile(path, []byte("void main() { __out(7); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != path {
		t.Errorf("file program name = %q, want %q", p.Name, path)
	}

	_, err = Load("nope")
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), " ")) {
		t.Errorf("Load(nope) error = %v; want one listing the benchmarks", err)
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{10, 2, []int{0, 5, 10}},
		{14, 9, []int{0, 2, 4, 6, 8, 10, 11, 12, 13, 14}},
		{59, 9, []int{0, 7, 14, 21, 28, 35, 41, 47, 53, 59}},
	}
	for _, c := range cases {
		got := chunks(c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("chunks(%d,%d) = %v", c.n, c.k, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("chunks(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
				break
			}
		}
	}
}

func TestBenchmarksCompileAndValidate(t *testing.T) {
	for _, b := range All() {
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if got := p.NumSubTasks(); got != b.SubTasks {
			t.Errorf("%s: program has %d MARKs, want %d", b.Name, got, b.SubTasks)
		}
		// Every backward conditional branch or backward jump must carry a
		// loop bound — the analyzer cannot produce a WCET otherwise.
		for pc, in := range p.Code {
			backward := (in.Op.IsCondBranch() || in.Op == isa.J) && int(in.Imm) <= pc
			if backward {
				if _, ok := p.LoopBounds[pc]; !ok {
					t.Errorf("%s: backward branch at pc %d (%s) has no loop bound", b.Name, pc, in.String())
				}
			}
		}
	}
}

// TestOutputsMatchReference executes each compiled benchmark and compares
// its observable outputs with the pure-Go reference implementation,
// verifying the whole toolchain (compiler, assembler, executor) end to end.
func TestOutputsMatchReference(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m := exec.New(mustProgram(t, b))
			if _, err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			wantI, wantF := b.Ref()
			if len(m.Out) != len(wantI) {
				t.Fatalf("Out = %v, want %v", m.Out, wantI)
			}
			for i := range wantI {
				if m.Out[i] != wantI[i] {
					t.Errorf("Out[%d] = %d, want %d", i, m.Out[i], wantI[i])
				}
			}
			if len(m.OutF) != len(wantF) {
				t.Fatalf("OutF = %v, want %v", m.OutF, wantF)
			}
			for i := range wantF {
				if m.OutF[i] != wantF[i] && math.Abs(m.OutF[i]-wantF[i]) > 0 {
					t.Errorf("OutF[%d] = %v, want %v (must match bit-for-bit)", i, m.OutF[i], wantF[i])
				}
			}
		})
	}
}

// TestDynamicSizes keeps the benchmarks in the intended size band: large
// enough to be meaningful, small enough that 200-instance experiments run
// in seconds. adpcm must remain the largest and cnt the smallest, echoing
// Table 3's ordering.
func TestDynamicSizes(t *testing.T) {
	sizes := map[string]int64{}
	for _, b := range All() {
		m := exec.New(mustProgram(t, b))
		n, err := m.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		sizes[b.Name] = n
		if n < 3_000 || n > 300_000 {
			t.Errorf("%s: %d dynamic instructions outside sane band", b.Name, n)
		}
	}
	if sizes["adpcm"] <= sizes["cnt"] {
		t.Errorf("adpcm (%d) should be larger than cnt (%d)", sizes["adpcm"], sizes["cnt"])
	}
	t.Logf("dynamic sizes: %v", sizes)
}

// TestMarksAreSequentialInMain checks sub-task markers appear in program
// order in main, which the checkpoint protocol relies on.
func TestMarksAreSequentialInMain(t *testing.T) {
	for _, b := range All() {
		p := mustProgram(t, b)
		mainFn, ok := p.FuncByName("main")
		if !ok {
			t.Fatalf("%s: no main", b.Name)
		}
		for i, pc := range p.Marks {
			if pc < mainFn.Start || pc >= mainFn.End {
				t.Errorf("%s: mark %d outside main", b.Name, i)
			}
		}
	}
}

func TestDeterministicExecution(t *testing.T) {
	b := ByName("fft")
	run := func() []float64 {
		m := exec.New(mustProgram(t, b))
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), m.OutF...)
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("fft nondeterministic at output %d", i)
		}
	}
}

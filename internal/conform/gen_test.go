package conform

import (
	"strings"
	"testing"

	"visa/internal/exec"
	"visa/internal/fault"
)

// TestGenDeterministic: a seed names one program, byte for byte, and
// distinct seeds actually explore the space.
func TestGenDeterministic(t *testing.T) {
	a := GenProgram(42).Source()
	b := GenProgram(42).Source()
	if a != b {
		t.Fatal("same seed produced different source")
	}
	if GenProgram(43).Source() == a {
		t.Fatal("distinct seeds produced identical source")
	}
}

// TestGenCorpusValid: every program in a large seeded corpus assembles,
// validates, and halts on the functional machine.
func TestGenCorpusValid(t *testing.T) {
	for i := 0; i < 300; i++ {
		seed := fault.DeriveSeed(7, uint64(i))
		prog, err := GenProgram(seed).Program()
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		tr, err := funcRun(exec.New(prog), DefaultMaxInsts)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if tr.seq == 0 {
			t.Fatalf("seed %#x: empty execution", seed)
		}
	}
}

// TestGenSubset: subsets renumber marks densely, stay valid, and reject
// malformed keep lists.
func TestGenSubset(t *testing.T) {
	g := GenProgram(9) // any seed with >= minSegs segments
	n := len(g.Indices())
	if n < minSegs {
		t.Fatalf("expected >= %d segments, got %d", minSegs, n)
	}
	sub, err := g.Subset([]int{n - 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.NumSubTasks(); got != 1 {
		t.Fatalf("subset has %d sub-tasks, want 1", got)
	}
	for _, bad := range [][]int{{}, {-1}, {0, 0}, {1, 0}, {n}} {
		if _, err := g.Subset(bad); err == nil {
			t.Errorf("Subset(%v) accepted", bad)
		}
	}
}

// TestReplayCommand pins the reproducer's shape — it is printed to users
// and documented in EXPERIMENTS.md.
func TestReplayCommand(t *testing.T) {
	g := GenProgram(0xabc)
	if got, want := g.ReplayCommand(), "visasim -conform -gen 0xabc"; got != want {
		t.Errorf("ReplayCommand = %q, want %q", got, want)
	}
	sub, err := g.Subset([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.ReplayCommand(); !strings.HasSuffix(got, "-keep 1") {
		t.Errorf("subset ReplayCommand = %q, want -keep suffix", got)
	}
}

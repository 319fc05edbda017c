package wcet

import (
	"testing"

	"visa/internal/isa"
)

// ProfilePad returns prog's per-sub-task D-cache miss counts from one cold
// run at 1 GHz, the paper's profile pad.
func ProfilePad(t *testing.T, prog *isa.Program) []int64 {
	t.Helper()
	_, dMisses, _ := profileSimple(t, prog, 0, 1000)
	return dMisses
}

// Fresh returns an analyzer with a's inputs (graph, value analysis,
// D-cache configuration and pad) but none of its memoized state, without
// re-running the value analysis or re-profiling.
func (a *Analyzer) Fresh(t *testing.T) *Analyzer {
	t.Helper()
	f, err := newFromGraph(a.Prog, a.Graph)
	if err != nil {
		t.Fatal(err)
	}
	f.valueRep = a.valueRep
	f.staticDC, f.staticDCFits = a.staticDC, a.staticDCFits
	copy(f.dcPad, a.dcPad)
	return f
}

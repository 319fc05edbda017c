package wcet

import (
	"testing"

	"visa/internal/clab"
)

// simulated returns the instructions the analyzer's pooled engines have
// fed so far. Every engine is back in the pool between passes, and the
// retire counter survives reuse, so the difference across a pass is the
// number of instructions that pass simulated.
func simulated(a *Analyzer) int64 {
	n := int64(0)
	for _, u := range a.engPool {
		n += u.eng.Stats.Retired
	}
	return n
}

// passCost runs one Analyze pass at fMHz and returns the instructions it
// simulated.
func passCost(t *testing.T, a *Analyzer, fMHz int) int64 {
	t.Helper()
	before := simulated(a)
	if _, err := a.Analyze(fMHz); err != nil {
		t.Fatal(err)
	}
	return simulated(a) - before
}

// TestPenaltyInvariantReuseCounts pins how much simulation the
// penalty-invariant loop-summary memo saves, so the reuse cannot silently
// switch off. On adpcm the first pass simulates everything, a pass at a
// second frequency re-simulates only the phases that read the miss
// penalty, and a repeated frequency re-simulates only the sub-task region
// paths (every loop and callee summary is a pen-keyed hit). Each path set
// is walked as a prefix tree, so a prefix its paths share counts once.
func TestPenaltyInvariantReuseCounts(t *testing.T) {
	an, err := New(mustProgram(t, clab.ByName("adpcm")))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		fMHz int
		want int64
	}{
		{1000, 1127626},
		{975, 63368},
		{1000, 796},
	} {
		if got := passCost(t, an, step.fMHz); got != step.want {
			t.Errorf("adpcm pass at %d MHz simulated %d instructions, want %d", step.fMHz, got, step.want)
		}
	}

	for _, b := range clab.All() {
		an, err := New(mustProgram(t, b))
		if err != nil {
			t.Fatal(err)
		}
		first := passCost(t, an, 1000)
		second := passCost(t, an, 975)
		if 4*second >= first {
			t.Errorf("%s: second-frequency pass simulated %d of %d instructions, want < 1/4", b.Name, second, first)
		}
		t.Logf("%s: first pass %d, second pass %d (%.1f%%)", b.Name, first, second, 100*float64(second)/float64(first))
	}
}

// TestAnalyzePassAllocs pins the allocations of one Analyze pass at a new
// frequency on a warmed adpcm analyzer: its Result, the charging closures
// of the phases it re-simulates, and the growth of the penalty-keyed memos.
// Path sets come from the analyzer's memos, and the tree walks reuse the
// pooled engines' checkpoint and path buffers, so neither allocates per
// pass (re-enumerating the region and callee path sets every pass made it
// 92).
func TestAnalyzePassAllocs(t *testing.T) {
	an, err := New(mustProgram(t, clab.ByName("adpcm")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Analyze(1000); err != nil {
		t.Fatal(err)
	}
	fMHz := 1000
	allocs := testing.AllocsPerRun(20, func() {
		fMHz += 10 // a new miss penalty every pass
		if _, err := an.Analyze(fMHz); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 14 {
		t.Errorf("Analyze pass at a new frequency: %v allocations, want at most 14", allocs)
	}
}

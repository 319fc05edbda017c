package exec_test

import (
	"testing"

	"visa/internal/clab"
	"visa/internal/exec"
)

// TestFillAllocs pins the allocations of one live pass over each
// benchmark: Reset, then Fill in 64-record batches to halt. Execution
// itself allocates nothing; the pinned count is the fresh Out and OutF
// slices a run's output records land in, so it must never rise.
func TestFillAllocs(t *testing.T) {
	want := map[string]float64{"adpcm": 2, "cnt": 2, "fft": 3, "lms": 3, "mm": 2, "srt": 2}
	var dst [64]exec.DynInst
	for _, bm := range clab.All() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		m := exec.New(prog)
		var runErr error
		pass := func() {
			m.Reset()
			for {
				n, err := m.Fill(dst[:])
				if err != nil {
					runErr = err
					return
				}
				if n < len(dst) {
					return
				}
			}
		}
		pass()
		allocs := testing.AllocsPerRun(3, pass)
		if runErr != nil {
			t.Fatalf("%s: %v", bm.Name, runErr)
		}
		if allocs > want[bm.Name] {
			t.Errorf("%s: a Reset+Fill pass allocates %.0f, pinned at %.0f", bm.Name, allocs, want[bm.Name])
		}
	}
}

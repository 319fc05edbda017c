package rt

import (
	"testing"

	"visa/internal/clab"
	"visa/internal/core"
)

// TestRunTaskAllocBudget pins the engine-level allocation budget for one
// steady-state task instance — the unit of work Figure 2's experiment runs
// thousands of times. The per-cycle loops (the machine's Fill, pipeline
// Feed) must contribute nothing; what remains is per-instance bookkeeping,
// so the budget is a small constant independent of the instruction count.
func TestRunTaskAllocBudget(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := s.Deadline(false)
	params := core.Params{DeadlineNs: deadline, OvhdNs: OvhdNs}
	plan, ok := core.Solve(core.SpecVISA, params, s.Table, s.WCETSeedPETs())
	if !ok {
		t.Fatal("no feasible plan for cnt")
	}

	ps := newProcSim(s.Prog, ProcComplex, plan.Spec.FMHz)
	var runErr error
	run := func() {
		if _, err := ps.runTask(plan, 0); err != nil {
			runErr = err
		}
	}
	run() // warm: caches, predictors, and window high-water marks
	if runErr != nil {
		t.Fatal(runErr)
	}
	allocs := testing.AllocsPerRun(5, run)
	if runErr != nil {
		t.Fatal(runErr)
	}
	// cnt's instance makes 3: the aets slice, and the growth of the output
	// slices that Reset hands the machine fresh. The budget leaves room for
	// the protocol closures; anything above it means a cycle-proportional
	// allocation crept back into the feed path.
	const budget = 8
	if allocs > budget {
		t.Errorf("runTask allocates %.1f per steady-state instance, budget %d", allocs, budget)
	}
}

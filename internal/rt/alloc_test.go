package rt

import (
	"testing"

	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
)

// TestRunTaskAllocBudget pins the engine-level allocation budget for one
// steady-state task instance — the unit of work Figure 2's experiment runs
// thousands of times — both when the task replays the set-up's recorded
// stream and when it executes live. The per-cycle loops (the stream's
// Fill, pipeline Feed) must contribute nothing; what remains is
// per-instance bookkeeping (the AET slice and the protocol closures), so
// the budget is a small constant independent of the instruction count.
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

	for _, replay := range []bool{true, false} {
		ps := newProcSim(s.Prog, ProcComplex, plan.Spec.FMHz)
		if replay {
			ps.trace = s.trace
		}
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
		if ps.replay != replay {
			t.Fatalf("task replayed=%v, want %v", ps.replay, replay)
		}
		allocs := testing.AllocsPerRun(5, run)
		if runErr != nil {
			t.Fatal(runErr)
		}
		// Budget: the aets slice plus the two protocol closures and their
		// captured frame. Anything above this means a cycle-proportional
		// allocation crept back into the feed path.
		const budget = 8
		if allocs > budget {
			t.Errorf("runTask (replay=%v) allocates %.1f per steady-state instance, budget %d",
				replay, allocs, budget)
		}
	}
}

// TestReplayStreamAllocFree pins the replayed stream itself at zero
// allocations per task: starting a task on the recorded input and taking
// its every batch allocates nothing.
func TestReplayStreamAllocFree(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	ps := newProcSim(s.Prog, ProcComplex, 1000)
	ps.trace = s.trace
	var batch [64]exec.DynInst
	var insts int64
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		insts = 0
		if runErr = ps.start(0); runErr != nil {
			return
		}
		for {
			n, err := ps.fill(batch[:])
			insts += int64(n)
			if err != nil {
				runErr = err
				return
			}
			if n < len(batch) {
				return
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if insts != s.DynInsts {
		t.Fatalf("replayed %d instructions, set-up has %d", insts, s.DynInsts)
	}
	if allocs != 0 {
		t.Errorf("replaying one task allocates %.1f, want 0", allocs)
	}
}

package conform

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/ooo"
	"visa/internal/wcet"
)

// underBoundSeg is a segment whose loop declares #bound 2 but trips 200
// times: the trip count is loaded from memory, so the value analysis
// cannot refute the annotation, and the static WCET undershoots the
// observed time — exactly the class of soundness break I2 must catch.
const underBoundSeg = `    la r13, cbuf
    li r8, 200
    sw r8, 0(r13)
    lw r11, 0(r13)
    li r10, 0
    li r12, 0
ub_loop:
    mul r12, r12, r11
    add r12, r12, r10
    addi r10, r10, 1
    blt r10, r11, ub_loop #bound 2
    out r12`

const okSeg = `    li r8, 5
    li r9, 3
    add r8, r8, r9
    out r8`

// badGen builds a hand-assembled Gen whose middle segment carries the
// under-declared bound, so minimization has something to strip.
func badGen() *Gen {
	return &Gen{Seed: 0xbad, segs: []string{okSeg, underBoundSeg, okSeg}}
}

// TestOracleCatchesUnderdeclaredBound: the oracle must flag the
// under-bounded program as an I2 violation at every operating point, not
// report it as conforming.
func TestOracleCatchesUnderdeclaredBound(t *testing.T) {
	prog, err := badGen().Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog, Options{Points: []int{100, 1000}, Faults: DefaultFaults(0xbad)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed("I2") {
		t.Fatalf("oracle missed the under-declared bound; violations: %v", res.Violations)
	}
}

// TestMinimize: the reproducer drops the healthy segments, keeps the
// faulty one, still fails the same invariant, and replays with one
// command.
func TestMinimize(t *testing.T) {
	g := badGen()
	prog, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Points: []int{1000}, Faults: DefaultFaults(g.Seed)}
	res, err := Check(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	repro, err := Minimize(g, opt, res)
	if err != nil {
		t.Fatal(err)
	}
	if repro == nil {
		t.Fatal("Minimize returned nil for a failing program")
	}
	if len(repro.Keep) != 1 || repro.Keep[0] != 1 {
		t.Fatalf("minimized to segments %v, want [1]", repro.Keep)
	}
	if got, want := repro.Command, "visasim -conform -gen 0xbad -keep 1"; got != want {
		t.Errorf("repro command %q, want %q", got, want)
	}
	found := false
	for _, inv := range repro.Invariants {
		if inv == "I2" {
			found = true
		}
	}
	if !found {
		t.Errorf("repro invariants %v lost the I2 failure", repro.Invariants)
	}

	// The reproducer must fail standalone (badGen is hand-built, so replay
	// its subset directly rather than through GenProgram).
	msub, err := g.Subset(repro.Keep)
	if err != nil {
		t.Fatal(err)
	}
	mprog, err := msub.Program()
	if err != nil {
		t.Fatal(err)
	}
	mres, err := Check(mprog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !mres.Failed("I2") {
		t.Error("minimized reproducer no longer violates I2")
	}
}

// TestMinimizeCleanProgram: no violations, no reproducer.
func TestMinimizeCleanProgram(t *testing.T) {
	g := GenProgram(1)
	prog, err := g.Program()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Points: []int{1000}}
	res, err := Check(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	repro, err := Minimize(g, opt, res)
	if err != nil {
		t.Fatal(err)
	}
	if repro != nil {
		t.Fatalf("Minimize invented a reproducer for a clean program: %v", repro)
	}
}

// TestCheckRejectsUnsafeFault: non-paranoid-safe kinds may legally breach
// the bound, so the oracle must refuse them rather than report garbage.
func TestCheckRejectsUnsafeFault(t *testing.T) {
	prog, err := GenProgram(1).Program()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog, Options{Faults: []fault.Spec{{Kind: fault.BranchPoison, Rate: 100}}})
	if err == nil {
		t.Fatal("Check accepted a non-paranoid-safe fault kind")
	}
}

// TestCheckSwitchAccounting: the I3/I4 checkers flag each way the switch
// accounting can go wrong, using synthetic observations so the cases stay
// reachable even while the real models are correct.
func TestCheckSwitchAccounting(t *testing.T) {
	bound := &wcet.Result{SubTasks: []int64{100, 100}, Total: 200}
	good := func() *switchObs {
		return &switchObs{
			switchMark:  1,
			switchAt:    500,
			start:       564,
			nowAfter:    564,
			firstRetire: 572,
			subCycles:   map[int]int64{1: 90},
			stats:       ooo.Stats{Retired: 40, SimpleModeRetired: 10, ModeSwitches: 1},
			fed:         50,
			ovhd:        64,
		}
	}

	check := func(o *switchObs) *Result {
		res := &Result{}
		checkSwitch(res, runLabel{"ooo-switch", 1000, nil}, o, bound)
		return res
	}
	if res := check(good()); len(res.Violations) != 0 {
		t.Fatalf("clean observation flagged: %v", res.Violations)
	}

	cases := []struct {
		name      string
		mutate    func(*switchObs)
		invariant string
	}{
		{"origin off by one", func(o *switchObs) { o.start = 563 }, "I3"},
		{"clock not rebased", func(o *switchObs) { o.nowAfter = 565 }, "I3"},
		{"retire inside drain", func(o *switchObs) { o.firstRetire = 564 }, "I3"},
		{"window over bound+restart", func(o *switchObs) { o.subCycles[1] = 102 }, "I3"},
		{"lost retirement", func(o *switchObs) { o.stats.Retired = 39 }, "I4"},
		{"double switch", func(o *switchObs) { o.stats.ModeSwitches = 2 }, "I4"},
		{"never entered simple mode", func(o *switchObs) {
			o.stats.SimpleModeRetired = 0
			o.stats.Retired = 50
		}, "I4"},
	}
	for _, tc := range cases {
		o := good()
		tc.mutate(o)
		if res := check(o); !res.Failed(tc.invariant) {
			t.Errorf("%s: no %s violation (got %v)", tc.name, tc.invariant, res.Violations)
		}
	}

	// The one-cycle restart allowance on the switch sub-task is exact:
	// bound+1 passes, bound+2 fails.
	o := good()
	o.subCycles[1] = 101
	if res := check(o); res.Failed("I3") {
		t.Errorf("restart cycle not allowed: %v", res.Violations)
	}
}

// TestCheckBudgetEdge: the batched timing runs keep the instruction
// budget's edge where one-at-a-time stepping puts it. A program that runs
// past MaxInsts and faults three instructions later fails with the budget
// error from Check and from both timing drivers, although the fault lies in
// the same 64-record batch; a program that halts after exactly MaxInsts
// instructions passes, and one instruction less is a budget error.
func TestCheckBudgetEdge(t *testing.T) {
	prog := isa.MustAssemble("budget-edge", `
.text
.func main
    mark 0
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    mark 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    lw r2, 2(r0)
    halt
.endfunc`)
	m := exec.New(prog)
	var execErr *exec.ExecError
	for {
		if _, _, err := m.Step(); err != nil {
			if !errors.As(err, &execErr) {
				t.Fatalf("program fails with %v, want an exec fault", err)
			}
			break
		}
	}
	if _, err := driveSimple(newModels(prog), 1000, nil, DefaultMaxInsts); !errors.As(err, &execErr) {
		t.Fatalf("unbounded simple run: %v, want the exec fault", err)
	}
	budget := execErr.Seq - 3
	want := fmt.Sprintf("conform: budget-edge: no halt within %d instructions", budget)
	if _, err := Check(prog, Options{MaxInsts: budget}); err == nil || err.Error() != want {
		t.Errorf("Check: %v, want %q", err, want)
	}
	if _, err := driveSimple(newModels(prog), 1000, nil, budget); err == nil || err.Error() != want {
		t.Errorf("driveSimple: %v, want %q", err, want)
	}
	if _, err := driveSwitch(newModels(prog), 1000, 1, nil, budget); err == nil || err.Error() != want {
		t.Errorf("driveSwitch: %v, want %q", err, want)
	}

	gen, _ := anchorProgram(t, 0)
	opt := Options{Points: []int{1000}, Faults: DefaultFaults(1)}
	res, err := Check(gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.DynInsts <= batchSize {
		t.Fatalf("anchor program runs %d instructions, too few to span a batch", res.DynInsts)
	}
	opt.MaxInsts = res.DynInsts
	exact, err := Check(gen, opt)
	if err != nil {
		t.Fatalf("Check with MaxInsts equal to the program's %d instructions: %v", res.DynInsts, err)
	}
	if !reflect.DeepEqual(exact, res) {
		t.Errorf("Check at the exact budget reports %+v, want %+v", exact, res)
	}
	short := res.DynInsts - 1
	want = fmt.Sprintf("conform: %s: no halt within %d instructions", gen.Name, short)
	opt.MaxInsts = short
	if _, err := Check(gen, opt); err == nil || err.Error() != want {
		t.Errorf("Check one instruction short: %v, want %q", err, want)
	}
	if _, err := driveSimple(newModels(gen), 1000, nil, short); err == nil || err.Error() != want {
		t.Errorf("driveSimple one instruction short: %v, want %q", err, want)
	}
	if _, err := driveSwitch(newModels(gen), 1000, gen.NumSubTasks()/2, nil, short); err == nil || err.Error() != want {
		t.Errorf("driveSwitch one instruction short: %v, want %q", err, want)
	}
	if _, err := driveSwitch(newModels(gen), 1000, gen.NumSubTasks()/2, nil, res.DynInsts); err != nil {
		t.Errorf("driveSwitch at the exact budget: %v", err)
	}
}

package conform

import (
	"reflect"
	"testing"

	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/power"
)

// anchorProgram returns program i of the seed-1 campaign corpus.
func anchorProgram(t *testing.T, i int) (*isa.Program, uint64) {
	t.Helper()
	seed := Campaign{Seed: 1}.ProgramSeed(i)
	prog, err := GenProgram(seed).Program()
	if err != nil {
		t.Fatalf("program %d (seed %#x): %v", i, seed, err)
	}
	return prog, seed
}

// TestModelReuseShadow: a run on one model set reused across every run of
// a program observes exactly what the same run observes on freshly built
// models. It sweeps the seed-1 anchor corpus at every DVS point, with no
// fault and under each DefaultFaults spec, alternating simple and
// mode-switch runs so each pipeline starts after the other has dirtied the
// shared caches, bus and machine.
func TestModelReuseShadow(t *testing.T) {
	programs := 40
	if testing.Short() {
		programs = 8
	}
	for i := 0; i < programs; i++ {
		prog, seed := anchorProgram(t, i)
		specs := []*fault.Spec{nil}
		faults := DefaultFaults(seed)
		for j := range faults {
			specs = append(specs, &faults[j])
		}
		switchMark := prog.NumSubTasks() / 2
		shared := newModels(prog)
		for _, pt := range power.Points() {
			for _, spec := range specs {
				fresh, err := driveSimple(newModels(prog), pt.FMHz, spec, DefaultMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := driveSimple(shared, pt.FMHz, spec, DefaultMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Fatalf("program %d at %d MHz simple/%s: reused models observed\n%+v\nfresh models observed\n%+v",
						i, pt.FMHz, specName(spec), reused, fresh)
				}
				freshSw, err := driveSwitch(newModels(prog), pt.FMHz, switchMark, spec, DefaultMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				reusedSw, err := driveSwitch(shared, pt.FMHz, switchMark, spec, DefaultMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(freshSw, reusedSw) {
					t.Fatalf("program %d at %d MHz ooo-switch/%s: reused models observed\n%+v\nfresh models observed\n%+v",
						i, pt.FMHz, specName(spec), reusedSw, freshSw)
				}
			}
		}
	}
}

// TestDriveAllocs pins what a warm run on reused models allocates: the
// observation and its per-sub-task windows, the injector and the
// machine's output slices, and no machine, memory page, cache, bus,
// pipeline or predictor table. Building the models per run costs 17
// allocations per simple run and 34 per switch run, besides the page and
// table buffers, and fails this pin.
func TestDriveAllocs(t *testing.T) {
	prog, seed := anchorProgram(t, 0)
	spec := &DefaultFaults(seed)[1]
	ms := newModels(prog)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"driveSimple", func() error {
			_, err := driveSimple(ms, 1000, spec, DefaultMaxInsts)
			return err
		}},
		{"driveSwitch", func() error {
			_, err := driveSwitch(ms, 1000, prog.NumSubTasks()/2, spec, DefaultMaxInsts)
			return err
		}},
	} {
		if err := tc.run(); err != nil { // warm: builds the complex pipeline
			t.Fatal(err)
		}
		const max = 10 // 7 measured for both
		if n := testing.AllocsPerRun(10, func() { tc.run() }); n > max {
			t.Errorf("%s on reused models allocates %.1f times per run, want <= %d", tc.name, n, max)
		}
	}
}

// TestStreamHashSensitive: flipping any single bit of any hashed DynInst
// field, at the first, middle or last instruction of a generated
// program's stream, changes the final stream hash.
func TestStreamHashSensitive(t *testing.T) {
	prog, _ := anchorProgram(t, 0)
	m := exec.New(prog)
	var stream []exec.DynInst
	for {
		d, ok, err := stepBudget(m, DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		stream = append(stream, d)
	}
	hash := func() streamHash {
		h := streamBasis
		for i := range stream {
			h.add(&stream[i])
		}
		return h
	}
	base := hash()
	flips := []struct {
		field string
		bits  int
		flip  func(d *exec.DynInst, b int)
	}{
		{"Seq", 64, func(d *exec.DynInst, b int) { d.Seq ^= 1 << b }},
		{"PC", 32, func(d *exec.DynInst, b int) { d.PC ^= 1 << b }},
		{"Op", 8, func(d *exec.DynInst, b int) { d.Inst.Op ^= 1 << b }},
		{"Addr", 32, func(d *exec.DynInst, b int) { d.Addr ^= 1 << b }},
		{"Taken", 1, func(d *exec.DynInst, _ int) { d.Taken = !d.Taken }},
		{"NextPC", 32, func(d *exec.DynInst, b int) { d.NextPC ^= 1 << b }},
	}
	for _, at := range []int{0, len(stream) / 2, len(stream) - 1} {
		for _, f := range flips {
			for b := 0; b < f.bits; b++ {
				f.flip(&stream[at], b)
				if hash() == base {
					t.Errorf("instruction %d: flipping %s bit %d leaves the stream hash unchanged", at, f.field, b)
				}
				f.flip(&stream[at], b) // flip back
			}
		}
	}
	if hash() != base {
		t.Fatal("stream not restored")
	}
}

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
func anchorProgram(tb testing.TB, i int) (*isa.Program, uint64) {
	tb.Helper()
	seed := Campaign{Seed: 1}.ProgramSeed(i)
	prog, err := GenProgram(seed).Program()
	if err != nil {
		tb.Fatalf("program %d (seed %#x): %v", i, seed, err)
	}
	return prog, seed
}

// TestModelReuseShadow: a run on one model set reused across every run of
// a program, and across programs, observes exactly what the same run
// observes on freshly built models. It walks the seed-1 anchor corpus on
// the model set Check takes from and returns to the free list, so every
// program after the first runs on the set the previous program left: at
// every DVS point, with no fault and under each DefaultFaults spec,
// alternating simple and mode-switch runs so each pipeline starts after
// the other has dirtied the shared caches, bus and machine. Every other
// program leaves the set as a Check does that stops with an error partway
// through a run: a budget error mid-way through a simple and then a
// mode-switch run.
func TestModelReuseShadow(t *testing.T) {
	programs := 40
	if testing.Short() {
		programs = 8
	}
	var last *models
	for i := 0; i < programs; i++ {
		prog, seed := anchorProgram(t, i)
		shared := acquireModels(prog)
		if last != nil && shared != last {
			t.Fatalf("program %d: the free list did not hand back the set program %d released", i, i-1)
		}
		// Check's first run on the set is a functional run with no reset.
		want, err := funcRun(exec.New(prog), DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := funcRun(shared.m, DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.equal(got) {
			t.Fatalf("program %d: functional run on an acquired set ran %d insts, hash %x; a fresh machine ran %d, hash %x",
				i, got.seq, got.hash, want.seq, want.hash)
		}
		specs := []*fault.Spec{nil}
		faults := DefaultFaults(seed)
		for j := range faults {
			specs = append(specs, &faults[j])
		}
		switchMark := prog.NumSubTasks() / 2
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
		if i%2 == 1 {
			half := want.seq / 2
			if _, err := driveSimple(shared, 1000, nil, half); err == nil {
				t.Fatalf("program %d: simple run within %d of %d instructions did not fail", i, half, want.seq)
			}
			if _, err := driveSwitch(shared, 1000, switchMark, &faults[1], half); err == nil {
				t.Fatalf("program %d: switch run within %d of %d instructions did not fail", i, half, want.seq)
			}
		}
		releaseModels(shared)
		last = shared
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

// TestCheckBytes pins what one Check allocates on warm pooled models: the
// fresh reference machine's two 64 KiB memory pages, the WCET analyzer and
// the run observations, and no model set. It measured 175 KB; building a
// model set per program cost 720 KB and fails this pin.
func TestCheckBytes(t *testing.T) {
	prog, seed := anchorProgram(t, 0)
	opt := Options{Faults: DefaultFaults(seed)}
	if _, err := Check(prog, opt); err != nil { // warm: a model set goes on the free list
		t.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Check(prog, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	const max = 256 << 10
	if got := r.AllocedBytesPerOp(); got > max {
		t.Errorf("Check allocates %d bytes per program, want <= %d", got, max)
	}
}

// BenchmarkCheck runs the oracle over the first 40 programs of the seed-1
// anchor corpus, as a campaign worker does: one op is the whole corpus.
func BenchmarkCheck(b *testing.B) {
	progs := make([]*isa.Program, 40)
	opts := make([]Options, len(progs))
	for i := range progs {
		prog, seed := anchorProgram(b, i)
		progs[i], opts[i] = prog, Options{Faults: DefaultFaults(seed)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, prog := range progs {
			if _, err := Check(prog, opts[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N*len(progs)), "ms/program")
}

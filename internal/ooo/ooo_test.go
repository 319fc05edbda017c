package ooo

import (
	"fmt"
	"math/rand"
	"testing"

	"visa/internal/bpred"
	"visa/internal/cache"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/simple"
)

func newPipe() *Pipeline {
	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	bus := memsys.NewBus(memsys.Default, 1000)
	return New(Config{}, ic, dc, bus)
}

func feedAll(t *testing.T, p *Pipeline, prog *isa.Program) []int64 {
	t.Helper()
	m := exec.New(prog)
	var retires []int64
	for {
		d, ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		retires = append(retires, p.Feed(&d))
	}
	return retires
}

func timeSimple(t *testing.T, prog *isa.Program) int64 {
	t.Helper()
	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	sp := simple.New(ic, dc, memsys.NewBus(memsys.Default, 1000))
	m := exec.New(prog)
	for {
		d, ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sp.Feed(&d)
	}
	return sp.Now()
}

// ilpLoop is a loop with abundant instruction-level parallelism.
func ilpLoop(iters int) *isa.Program {
	src := fmt.Sprintf(`
.text
.func main
    li r1, %d
    li r2, 0
loop:
    addi r3, r3, 1
    addi r4, r4, 2
    addi r5, r5, 3
    addi r6, r6, 4
    addi r7, r7, 5
    addi r8, r8, 6
    addi r9, r9, 7
    addi r10, r10, 8
    addi r2, r2, 1
    blt r2, r1, loop #bound %d
    halt
.endfunc`, iters, iters)
	return isa.MustAssemble("ilp", src)
}

func TestDefaultConfig(t *testing.T) {
	p := newPipe()
	if p.Cfg.ROBSize != 128 || p.Cfg.IQSize != 64 || p.Cfg.LSQSize != 64 ||
		p.Cfg.FetchWidth != 4 || p.Cfg.FUCount != 4 || p.Cfg.CachePorts != 2 {
		t.Errorf("defaults do not match the paper: %+v", p.Cfg)
	}
}

func TestComplexBeatsSimpleOnILP(t *testing.T) {
	prog := ilpLoop(300)
	cx := newPipe()
	retires := feedAll(t, cx, prog)
	complexCycles := retires[len(retires)-1]
	simpleCycles := timeSimple(t, prog)
	ratio := float64(simpleCycles) / float64(complexCycles)
	// The paper's Table 3 reports simple/complex between 3.1 and 5.8.
	if ratio < 2.5 {
		t.Errorf("simple/complex ratio = %.2f (simple=%d complex=%d), want >= 2.5",
			ratio, simpleCycles, complexCycles)
	}
}

func TestRetireInOrderAndWidth(t *testing.T) {
	prog := ilpLoop(100)
	p := newPipe()
	retires := feedAll(t, p, prog)
	perCycle := map[int64]int{}
	for i := 1; i < len(retires); i++ {
		if retires[i] < retires[i-1] {
			t.Fatalf("retire out of order at %d: %d < %d", i, retires[i], retires[i-1])
		}
	}
	for _, r := range retires {
		perCycle[r]++
		if perCycle[r] > p.Cfg.RetireWidth {
			t.Fatalf("more than %d retires in cycle %d", p.Cfg.RetireWidth, r)
		}
	}
}

// Property: on random straight-line integer programs, retire times are
// monotone, widths are respected, and the model is deterministic.
func TestRandomProgramProperties(t *testing.T) {
	ops := []string{
		"addi r%d, r%d, 3",
		"add r%d, r%d, r%d",
		"mul r%d, r%d, r%d",
		"xor r%d, r%d, r%d",
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := ".text\n.func main\n"
		n := 50 + r.Intn(150)
		for i := 0; i < n; i++ {
			op := ops[r.Intn(len(ops))]
			rd := 1 + r.Intn(27)
			rs := 1 + r.Intn(27)
			rt := 1 + r.Intn(27)
			switch op {
			case ops[0]:
				src += fmt.Sprintf(op, rd, rs) + "\n"
			default:
				src += fmt.Sprintf(op, rd, rs, rt) + "\n"
			}
		}
		src += "halt\n.endfunc"
		prog := isa.MustAssemble("rand", src)

		run := func() []int64 { return feedAll(t, newPipe(), prog) }
		r1, r2 := run(), run()
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("seed %d: nondeterministic retire time at %d", seed, i)
			}
			if i > 0 && r1[i] < r1[i-1] {
				t.Fatalf("seed %d: retire out of order", seed)
			}
		}
		// Dependencies through registers are respected at least as strongly
		// as a 1-wide ideal machine's lower bound: total cycles > n/4.
		if last := r1[len(r1)-1]; last < int64(n/4) {
			t.Fatalf("seed %d: %d instructions retired in %d cycles (superscalar width violated)", seed, n, last)
		}
	}
}

func TestGsharePredictsRegularLoop(t *testing.T) {
	prog := ilpLoop(500)
	p := newPipe()
	feedAll(t, p, prog)
	// 500 iterations: the backward branch saturates taken quickly; only a
	// handful of mispredictions (warmup + exit) are acceptable.
	if p.BranchMispredicts > 25 {
		t.Errorf("branch mispredicts = %d over 500 regular iterations", p.BranchMispredicts)
	}
}

func TestFlushPredictorsHurts(t *testing.T) {
	prog := ilpLoop(200)
	warm := newPipe()
	feedAll(t, warm, prog)
	warmCycles := warm.Now()
	// Same pipeline state but flushed predictors and caches: slower.
	warm.FlushPredictors()
	warm.ICache.Flush()
	warm.DCache.Flush()
	warm.Rebase(0)
	retires := feedAll(t, warm, prog)
	if flushed := retires[len(retires)-1]; flushed < warmCycles {
		t.Errorf("flushed run (%d cycles) faster than cold run (%d)", flushed, warmCycles)
	}
}

func TestROBLimitsInFlight(t *testing.T) {
	// A tiny ROB forces near-scalar behaviour on ILP code.
	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	small := New(Config{ROBSize: 8, IQSize: 4}, ic, dc, memsys.NewBus(memsys.Default, 1000))
	prog := ilpLoop(100)
	rs := feedAll(t, small, prog)
	smallCycles := rs[len(rs)-1]
	big := newPipe()
	rb := feedAll(t, big, prog)
	bigCycles := rb[len(rb)-1]
	if smallCycles <= bigCycles {
		t.Errorf("ROB=8 (%d cycles) not slower than ROB=128 (%d)", smallCycles, bigCycles)
	}
}

func TestSwitchToSimple(t *testing.T) {
	prog := ilpLoop(50)
	p := newPipe()
	m := exec.New(prog)
	var fed int
	var switchAt int64
	for {
		d, ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rt := p.Feed(&d)
		fed++
		if fed == 100 {
			switchAt = p.SwitchToSimple(rt)
			if p.Mode() != ModeSimple {
				t.Fatal("mode did not switch")
			}
			if switchAt != rt+p.Cfg.SwitchOvhdCycles {
				t.Fatalf("switch start = %d, want %d", switchAt, rt+p.Cfg.SwitchOvhdCycles)
			}
		}
		if switchAt > 0 && rt < switchAt && fed > 100 {
			t.Fatalf("post-switch retire %d before switch point %d", rt, switchAt)
		}
	}
	if p.Now() <= switchAt {
		t.Fatal("no progress recorded after the switch")
	}
	// Simple mode charges renames (limited renaming stays on, §3.2).
	act := p.TakeActivity()
	if act.Renames == 0 {
		t.Error("simple mode on the complex core must charge rename lookups")
	}
}

// TestSwitchBoundaryExact pins the mode-switch accounting at the exact
// boundary cycle (invariants I3/I4): the drain window (atCycle, start] and
// simple-mode execution must be disjoint, so the first post-switch
// instruction — a single-cycle op hitting a warm I-cache — fetches at
// start+1 and retires at start+8 after the in-order pipeline's fill
// (FetchToExec + execute + memory + writeback). Before the fix, Rebase let
// that fetch complete AT start, shortening the drain to 63 cycles and
// counting the boundary cycle against both mode totals.
func TestSwitchBoundaryExact(t *testing.T) {
	prog := ilpLoop(50)
	p := newPipe()
	m := exec.New(prog)
	var fed int64
	for {
		d, ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rt := p.Feed(&d)
		fed++
		if fed != 60 {
			continue
		}
		// The loop body is warm in the shared I-cache by now.
		start := p.SwitchToSimple(rt)
		if want := rt + p.Cfg.SwitchOvhdCycles; start != want {
			t.Fatalf("switch start = %d, want %d", start, want)
		}
		if p.Now() != start {
			t.Fatalf("Now() = %d right after switch, want %d (zero elapsed simple-mode cycles)", p.Now(), start)
		}
		d2, ok, err := m.Step()
		if err != nil || !ok {
			t.Fatalf("program ended at the switch point: ok=%v err=%v", ok, err)
		}
		fed++
		first := p.Feed(&d2)
		if want := start + 1 + simple.FetchToExec + 3; first != want {
			t.Fatalf("first post-switch retire = %d, want start+8 = %d (fetch at start+1)", first, want)
		}
	}
	// I4: every fed instruction is counted in exactly one mode total.
	if got := p.Stats.Retired + p.Stats.SimpleModeRetired; got != fed {
		t.Errorf("complex retired %d + simple retired %d != fed %d",
			p.Stats.Retired, p.Stats.SimpleModeRetired, fed)
	}
	if p.Stats.ModeSwitches != 1 {
		t.Errorf("ModeSwitches = %d, want 1", p.Stats.ModeSwitches)
	}
}

func TestSimpleModeMatchesVISATiming(t *testing.T) {
	// In simple mode from cycle 0, the complex core's timing must be
	// exactly the VISA engine's timing: same caches, same rules.
	prog := ilpLoop(60)
	p := newPipe()
	p.SwitchToSimple(-p.Cfg.SwitchOvhdCycles) // start simple mode at cycle 0
	retires := feedAll(t, p, prog)

	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	ref := simple.New(ic, dc, memsys.NewBus(memsys.Default, 1000))
	ref.HoldFetch(1) // SwitchToSimple holds the first fetch past the drain
	m := exec.New(prog)
	i := 0
	for {
		d, ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := ref.Feed(&d); retires[i] != want {
			t.Fatalf("inst %d: simple-mode retire %d != VISA retire %d", i, retires[i], want)
		}
		i++
	}
}

func TestMemoryContentionOnlyInComplexMode(t *testing.T) {
	// Back-to-back missing loads overlap on the complex core (contention
	// makes each later fill slightly later), but throughput still beats
	// the serial simple pipeline where each miss costs the full latency.
	var src = ".data\n"
	for i := 0; i < 16; i++ {
		src += fmt.Sprintf("v%d: .word %d\npad%d: .space 60\n", i, i, i)
	}
	src += ".text\n.func main\n    la r2, v0\n"
	for i := 0; i < 16; i++ {
		src += fmt.Sprintf("    lw r%d, %d(r2)\n", 3+i%8, i*64)
	}
	src += "    halt\n.endfunc"
	prog := isa.MustAssemble("misses", src)
	cx := newPipe()
	rc := feedAll(t, cx, prog)
	simpleCycles := timeSimple(t, prog)
	if rc[len(rc)-1] >= simpleCycles {
		t.Errorf("complex (%d) should overlap misses; simple = %d", rc[len(rc)-1], simpleCycles)
	}
}

// TestRebaseForgetsPipelineState: after Rebase, a pipeline that already ran
// a task must time the next one exactly like a fresh pipeline whose caches
// and predictors hold the same contents. Rebase must therefore reset every
// piece of in-flight state (register readiness, the store window, the
// latest completion, the fetch redirect, the windows and slot rings); only
// the caches, predictors and counters carry over. The rt task memo relies
// on this: it keys a task on its cache and predictor state alone. All six
// benchmarks run because cnt, adpcm and srt never load from a block that
// the previous pass's last stores wrote, so they miss a stale store window.
func TestRebaseForgetsPipelineState(t *testing.T) {
	for _, name := range []string{"adpcm", "cnt", "fft", "lms", "mm", "srt"} {
		t.Run(name, func(t *testing.T) { checkRebaseForgets(t, benchStream(t, name)) })
	}
}

func checkRebaseForgets(t *testing.T, stream []exec.DynInst) {
	for _, c := range []int64{0, 100} {
		a := newPipe()
		for j := range stream {
			a.Feed(&stream[j])
		}
		var ic, dc cache.Snapshot
		var g bpred.GshareSnapshot
		var ind bpred.IndirectSnapshot
		a.ICache.Snapshot(&ic)
		a.DCache.Snapshot(&dc)
		a.Gshare.Snapshot(&g)
		a.Indirect.Snapshot(&ind)
		// Zero the cumulative counters so the second pass's counts compare
		// directly with the fresh pipeline's.
		a.Stats, a.BranchMispredicts, a.IndirectMispreds = Stats{}, 0, 0
		a.TakeActivity()
		a.Bus.Reset()
		a.Rebase(c)

		b := newPipe()
		b.ICache.Restore(&ic)
		b.DCache.Restore(&dc)
		b.Gshare.Restore(&g)
		b.Indirect.Restore(&ind)
		b.Rebase(c)

		for j := range stream {
			ra, rb := a.Feed(&stream[j]), b.Feed(&stream[j])
			if ra != rb {
				t.Fatalf("Rebase(%d): instruction %d retires at %d on the rebased pipeline, %d on a fresh one", c, j, ra, rb)
			}
		}
		if a.Stats != b.Stats {
			t.Errorf("Rebase(%d): stats %+v, fresh pipeline %+v", c, a.Stats, b.Stats)
		}
		if a.BranchMispredicts != b.BranchMispredicts || a.IndirectMispreds != b.IndirectMispreds {
			t.Errorf("Rebase(%d): mispredicts %d/%d, fresh pipeline %d/%d", c,
				a.BranchMispredicts, a.IndirectMispreds, b.BranchMispredicts, b.IndirectMispreds)
		}
		if aa, ba := a.TakeActivity(), b.TakeActivity(); aa != ba {
			t.Errorf("Rebase(%d): activity %+v, fresh pipeline %+v", c, aa, ba)
		}
	}
}

package rt

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/fault"
	"visa/internal/minic"
	"visa/internal/wcet"
)

// TestMemoMatchesSimulation: the task memo is invisible to the harness.
// Every result field and every metrics byte of a run matches the run with
// the memo off, on both processors, under each kind of configuration a
// plan can carry; the configurations the memo bypasses serve no task from
// it, and the others do serve tasks.
func TestMemoMatchesSimulation(t *testing.T) {
	jitter := fault.Spec{Kind: fault.MemJitter, Rate: 500, Cycles: 64, Seed: 3}
	configs := []struct {
		name   string
		cfg    Config
		bypass bool
	}{
		{"plain", Config{Tight: true, Instances: 30}, false},
		{"loose", Config{Instances: 30}, false},
		{"fig4-flush", Config{Tight: true, Instances: 40, FlushTasks: 12}, false},
		{"freq-advantage", Config{Tight: true, Instances: 30, FreqAdvantage: 1.5}, false},
		{"histogram", Config{Instances: 30, Policy: PETHistogram, HistogramMiss: 0.2}, false},
		{"cycle-budget", Config{Tight: true, Instances: 30, CycleBudget: 1 << 30}, false},
		{"fault", Config{Tight: true, Instances: 20, Fault: &jitter}, true},
		{"vary-seeds", Config{Tight: true, Instances: 20, VaryInputSeeds: true}, true},
	}
	missed := map[Proc]int{}
	for _, name := range []string{"cnt", "fft"} {
		s, err := GetSetup(clab.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range configs {
			for _, proc := range []Proc{ProcSimpleFixed, ProcComplex} {
				run := func(hook memoHook) (*ProcResult, string, int) {
					sink, metrics := fullSink()
					cfg := tc.cfg
					cfg.Obs, cfg.Label = sink, "memo"
					hits := -1
					hook.hits = &hits
					res, err := runProcessor(s, proc, cfg, hook)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", name, tc.name, proc, err)
					}
					closeSink(t, sink)
					return res, metrics.String(), hits
				}
				mRes, mMetrics, hits := run(memoHook{})
				sRes, sMetrics, _ := run(memoHook{off: true})
				if !reflect.DeepEqual(mRes, sRes) {
					t.Errorf("%s/%s/%s: memo result %+v, simulated %+v", name, tc.name, proc, mRes, sRes)
				}
				if mMetrics != sMetrics {
					t.Errorf("%s/%s/%s: metrics differ between memo and simulation", name, tc.name, proc)
				}
				if tc.bypass && hits != -1 {
					t.Errorf("%s/%s/%s: the memo served %d tasks of a run it must bypass", name, tc.name, proc, hits)
				}
				if !tc.bypass && hits <= 0 {
					t.Errorf("%s/%s/%s: the memo served %d tasks", name, tc.name, proc, hits)
				}
				missed[proc] += mRes.MissedTasks
			}
		}
	}
	for _, proc := range []Proc{ProcSimpleFixed, ProcComplex} {
		if missed[proc] == 0 {
			t.Errorf("%s: no instance missed a checkpoint, so recovery went untested", proc)
		}
	}
}

// TestMemoCycleBudgetError: a budget that trips fails the run with the
// memo as without it.
func TestMemoCycleBudgetError(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tight: true, Instances: 5, CycleBudget: s.SteadyComplexCycles / 2}
	for _, hook := range []memoHook{{}, {off: true}} {
		if _, err := runProcessor(s, ProcComplex, cfg, hook); !errors.Is(err, ErrCycleBudget) {
			t.Errorf("memo off=%v: err = %v, want ErrCycleBudget", hook.off, err)
		}
	}
}

// TestMemoHits pins how many of ten instances the memo serves in the runs
// of the benchmark's Figure 2 plan: a simple-fixed run repeats its second
// instance's start state from then on, and cnt's complex core at the
// tight deadline settles after four simulated instances.
func TestMemoHits(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tight := range []bool{true, false} {
		hits := 0
		cfg := Config{Tight: tight, Instances: 10}
		if _, err := runProcessor(s, ProcSimpleFixed, cfg, memoHook{hits: &hits}); err != nil {
			t.Fatal(err)
		}
		if hits != 8 {
			t.Errorf("cnt simple-fixed tight=%v: %d hits, want 8", tight, hits)
		}
	}
	hits := 0
	if _, err := runProcessor(s, ProcComplex, Config{Tight: true, Instances: 10}, memoHook{hits: &hits}); err != nil {
		t.Fatal(err)
	}
	if hits != 6 {
		t.Errorf("cnt complex tight: %d hits, want 6", hits)
	}
}

// TestMemoShadow simulates every task the memo serves anyway and fails on
// any difference in result, events, cache counters and clocks, or end
// state, over every run of Figures 2–4 at 200 instances. cnt and fft
// always run; the other benchmarks are skipped under -short, and the race
// detector runs cnt and fft at 20 instances.
func TestMemoShadow(t *testing.T) {
	names := []string{"cnt", "fft"}
	if !testing.Short() && !raceEnabled {
		names = clab.Names()
	}
	n := Instances
	if raceEnabled {
		n = 20
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := clab.ByName(name)
			s, err := GetSetup(b)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for _, plan := range []*Plan{Figure2Plan([]*clab.Benchmark{b}, n), Figure3Plan([]*clab.Benchmark{b}, n), Figure4Plan([]*clab.Benchmark{b}, n)} {
				for _, job := range plan.Jobs {
					simpleCfg := job.Config
					simpleCfg.FlushTasks = 0
					for _, run := range []struct {
						proc Proc
						cfg  Config
					}{{ProcComplex, job.Config}, {ProcSimpleFixed, simpleCfg}} {
						h := 0
						if _, err := runProcessor(s, run.proc, run.cfg, memoHook{shadow: shadowCheck, hits: &h}); err != nil {
							t.Errorf("%s %s %+v: %v", plan.Name, run.proc, run.cfg, err)
						}
						hits += h
					}
				}
			}
			if hits < n {
				t.Errorf("the shadow runs served only %d tasks from the memo", hits)
			}
		})
	}
}

// TestMemoHitAllocs: serving a task from the memo allocates no more than
// simulating it.
func TestMemoHitAllocs(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{DeadlineNs: s.Deadline(false), OvhdNs: OvhdNs}
	plan, ok := core.Solve(core.SpecVISA, params, s.Table, s.WCETSeedPETs())
	if !ok {
		t.Fatal("no feasible plan for cnt")
	}
	allocs := func(memo bool) float64 {
		ps := newProcSim(s.Prog, ProcComplex, plan.Spec.FMHz)
		ps.trace = s.trace
		if memo {
			ps.memo = &taskMemo{}
		}
		var runErr error
		run := func() {
			if _, _, err := ps.task(plan, 0); err != nil {
				runErr = err
			}
		}
		for i := 0; i < 4; i++ { // warm: reach the steady state and memoize it
			run()
		}
		a := testing.AllocsPerRun(5, run)
		if runErr != nil {
			t.Fatal(runErr)
		}
		if memo && ps.memo.hits < 5 {
			t.Fatalf("the memo served %d of the measured tasks", ps.memo.hits)
		}
		return a
	}
	hit, sim := allocs(true), allocs(false)
	if hit > sim {
		t.Errorf("a memo hit allocates %.1f, a simulated task %.1f", hit, sim)
	}
}

// callTask is a periodic task with function calls: none of the six
// benchmarks has an indirect branch, so this is what puts returns through
// the complex core's indirect-target table between memoized tasks.
const callTask = `
int data[32];
int seed = 7;
int step(int x) { return (x * 3 + 1) & 1023; }
int mix(int a, int b) { return step(a) + b; }
void main() {
	int i;
	int acc;
	__subtask(0);
	for (i = 0; i < 32; i = i + 1) {
		seed = step(seed);
		data[i] = seed;
	}
	__subtask(1);
	acc = 0;
	for (i = 0; i < 32; i = i + 1) {
		acc = mix(data[i], acc);
	}
	__out(acc);
}
`

// TestMemoIndirectTargets: on a task whose returns train the indirect
// table, the memo matches simulation under Figure 4 flushes, where a hit
// from a flushed (cold) start must restore the trained table, and the
// shadow check holds on every hit.
func TestMemoIndirectTargets(t *testing.T) {
	prog, err := minic.Compile("calls.c", callTask)
	if err != nil {
		t.Fatal(err)
	}
	an, err := wcet.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSetup(an)
	if err != nil {
		t.Fatal(err)
	}
	s.Bench = &clab.Benchmark{Name: "calls"}
	cfg := Config{Tight: true, Instances: 80, FlushTasks: 40}
	hits := 0
	memo, err := runProcessor(s, ProcComplex, cfg, memoHook{hits: &hits})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := runProcessor(s, ProcComplex, cfg, memoHook{off: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo, sim) {
		t.Errorf("memo result %+v, simulated %+v", memo, sim)
	}
	if hits == 0 {
		t.Error("the memo served no task")
	}
	if _, err := runProcessor(s, ProcComplex, cfg, memoHook{shadow: shadowCheck}); err != nil {
		t.Error(err)
	}
}

// shadowCheck is the memo's shadow mode (a shadowFunc) for a task the memo
// is about to serve from e. It takes the memo's path (advance), then
// restores the start state exactly, simulates the task, and reports any
// difference: result, events, end state, or the caches' clocks and
// counters. It leaves ps in the simulated end state.
func shadowCheck(ps *procSim, plan *core.Plan, seed int32, e *memoEntry) error {
	var start, memo, live procState
	ps.snapshot(&start)
	ps.advance(e)
	ps.snapshot(&memo)
	memoClocks := [2]int64{ps.ic.Headroom(), ps.dc.Headroom()}
	memoStats := [2]cache.Stats{ps.ic.Stats(), ps.dc.Stats()}

	ps.ic.Restore(&start.ic)
	ps.dc.Restore(&start.dc)
	if ps.cx != nil {
		ps.cx.Gshare.Restore(&start.g)
		ps.cx.Indirect.Restore(&start.ind)
	}
	res, err := ps.runTask(plan, seed)
	if err != nil {
		return err
	}
	ps.snapshot(&live)
	switch {
	case res.timeNs != e.res.timeNs || res.missed != e.res.missed || res.simpleNs != e.res.simpleNs ||
		res.endCycles != e.res.endCycles || !slices.Equal(res.aets, e.res.aets):
		return errf("rt: task memo shadow: result %+v, memo %+v", res, e.res)
	case !slices.Equal(ps.events, e.events):
		return errf("rt: task memo shadow: %d events differ from the memo's %d", len(ps.events), len(e.events))
	case !live.equal(&memo):
		return errf("rt: task memo shadow: end state differs from the memo's")
	case [2]int64{ps.ic.Headroom(), ps.dc.Headroom()} != memoClocks:
		return errf("rt: task memo shadow: cache clock headroom %d/%d, memo %d/%d",
			ps.ic.Headroom(), ps.dc.Headroom(), memoClocks[0], memoClocks[1])
	case [2]cache.Stats{ps.ic.Stats(), ps.dc.Stats()} != memoStats:
		return errf("rt: task memo shadow: cache counters %+v/%+v, memo %+v/%+v",
			ps.ic.Stats(), ps.dc.Stats(), memoStats[0], memoStats[1])
	}
	return nil
}

package rt

import (
	"reflect"
	"sync"
	"testing"

	"visa/internal/clab"
	"visa/internal/fault"
)

// withoutTrace returns a copy of s with no recorded stream, so every task
// executes on the live machine.
func withoutTrace(s *Setup) *Setup {
	return &Setup{
		Bench:               s.Bench,
		Prog:                s.Prog,
		Analyzer:            s.Analyzer,
		Table:               s.Table,
		DPad:                s.DPad,
		SteadySimpleCycles:  s.SteadySimpleCycles,
		SteadyComplexCycles: s.SteadyComplexCycles,
		DynInsts:            s.DynInsts,
	}
}

// TestReplayMatchesLive: replaying the recorded stream is invisible to the
// harness. Every result field and every metrics byte matches a run that
// executes each task live, on both processors, under Figure 4 flushes and
// under an injected fault plan.
func TestReplayMatchesLive(t *testing.T) {
	poison := fault.Spec{Kind: fault.BranchPoison, Rate: 300, Seed: 11}
	jitter := fault.Spec{Kind: fault.MemJitter, Rate: 500, Cycles: 64, Seed: 3}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Tight: true, Instances: 25}},
		{"fig4-flush", Config{Tight: true, Instances: 40, FlushTasks: 10}},
		{"branch-poison", Config{Tight: true, Instances: 25, Fault: &poison}},
		{"mem-jitter", Config{Instances: 25, Fault: &jitter}},
	}
	missed := map[Proc]int{}
	for _, name := range []string{"cnt", "fft"} {
		traced, err := GetSetup(clab.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if traced.trace == nil || int64(traced.trace.Len()) != traced.DynInsts {
			t.Fatalf("%s: set-up carries no trace of its %d instructions", name, traced.DynInsts)
		}
		live := withoutTrace(traced)
		for _, tc := range configs {
			for _, proc := range []Proc{ProcSimpleFixed, ProcComplex} {
				run := func(s *Setup) (*ProcResult, string) {
					sink, metrics := fullSink()
					cfg := tc.cfg
					cfg.Obs, cfg.Label = sink, "replay"
					res, err := RunProcessor(s, proc, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", name, tc.name, proc, err)
					}
					closeSink(t, sink)
					return res, metrics.String()
				}
				rRes, rMetrics := run(traced)
				lRes, lMetrics := run(live)
				if !reflect.DeepEqual(rRes, lRes) {
					t.Errorf("%s/%s/%s: replayed result %+v, live %+v", name, tc.name, proc, rRes, lRes)
				}
				if rMetrics != lMetrics {
					t.Errorf("%s/%s/%s: metrics differ between replay and live", name, tc.name, proc)
				}
				missed[proc] += rRes.MissedTasks
			}
		}
	}
	// The recovery paths (mode switch, frequency switch) must be among
	// what was compared.
	for _, proc := range []Proc{ProcSimpleFixed, ProcComplex} {
		if missed[proc] == 0 {
			t.Errorf("%s: no instance missed a checkpoint, so recovery went untested", proc)
		}
	}
}

// TestReplaySharedTrace replays one Setup's trace from several goroutines
// at once, as engine workers do; under -race it checks that replay never
// writes to the shared trace.
func TestReplaySharedTrace(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tight: true, Instances: 5}
	want, err := RunProcessor(s, ProcComplex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*ProcResult, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunProcessor(s, ProcComplex, cfg)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: %+v, want %+v", i, got[i], want)
		}
	}
}

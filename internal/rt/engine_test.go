package rt

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"visa/internal/clab"
	"visa/internal/obs"
)

// runAllPlans regenerates the full evaluation (`experiments -all -n 10`
// equivalent) on the given worker count, returning the concatenated report
// text and the concatenated metrics streams (one per plan, as cmd/
// experiments writes one file per plan).
func runAllPlans(t *testing.T, workers, instances int) (string, string) {
	t.Helper()
	all := clab.All()
	var text, metrics strings.Builder
	for _, plan := range []*Plan{
		Table3Plan(all),
		Figure2Plan(all, instances),
		Figure3Plan(all, instances),
		Figure4Plan(all, instances),
	} {
		var buf bytes.Buffer
		sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&buf)}
		rep, err := (&Engine{Workers: workers, Sink: sink}).Run(plan)
		if err != nil {
			t.Fatalf("plan %s (j=%d): %v", plan.Name, workers, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("plan %s (j=%d): job failed: %v", plan.Name, workers, err)
		}
		if err := sink.Metrics.Close(); err != nil {
			t.Fatalf("plan %s (j=%d): metrics: %v", plan.Name, workers, err)
		}
		text.WriteString(rep.Text)
		metrics.Write(buf.Bytes())
	}
	return text.String(), metrics.String()
}

// TestParallelMatchesSerial is the engine's determinism guarantee: the full
// evaluation run on 8 workers must produce byte-identical report text and
// byte-identical JSONL metrics to a serial run (the committed form of the
// `experiments -all -n 10 -j 8` vs `-j 1` acceptance check).
func TestParallelMatchesSerial(t *testing.T) {
	const n = 10
	serialText, serialMetrics := runAllPlans(t, 1, n)
	parallelText, parallelMetrics := runAllPlans(t, 8, n)
	if serialText != parallelText {
		t.Errorf("report text differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			serialText, parallelText)
	}
	if serialMetrics != parallelMetrics {
		t.Error("JSONL metrics differ between -j 1 and -j 8")
	}
	if len(serialText) == 0 || len(serialMetrics) == 0 {
		t.Error("empty output from full evaluation run")
	}
}

// TestEngineDefaultWorkers: Workers <= 0 (the cmd default is NumCPU, but 0
// must also work) still runs every job and renders.
func TestEngineDefaultWorkers(t *testing.T) {
	rep, err := (&Engine{}).Run(Figure3Plan([]*clab.Benchmark{clab.ByName("cnt")}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.SavingsRows()) != 2 {
		t.Errorf("%d rows, want 2", len(rep.SavingsRows()))
	}
	if !strings.Contains(rep.Text, "FIGURE 3") {
		t.Errorf("report text missing header:\n%s", rep.Text)
	}
}

// TestConfigValidate covers each rejection Validate promises, plus the
// valid shapes closest to each boundary.
func TestConfigValidate(t *testing.T) {
	buf := obs.NewRecordBuffer()
	metricsSink := &obs.Sink{Metrics: buf, Counters: obs.NewCoalescingSink(buf, obs.CoalesceOptions{})}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"negative instances", Config{Instances: -1}, false},
		{"negative flush tasks", Config{FlushTasks: -1}, false},
		{"flush exceeds instances", Config{Instances: 10, FlushTasks: 11}, false},
		{"flush at instances", Config{Instances: 10, FlushTasks: 10}, true},
		{"flush exceeds default instances", Config{FlushTasks: Instances + 1}, false},
		{"freq advantage below one", Config{FreqAdvantage: 0.5}, false},
		{"freq advantage unset", Config{FreqAdvantage: 0}, true},
		{"freq advantage one", Config{FreqAdvantage: 1}, true},
		{"freq advantage 1.5", Config{FreqAdvantage: 1.5}, true},
		{"freq advantage NaN", Config{FreqAdvantage: math.NaN()}, false},
		{"freq advantage +Inf", Config{FreqAdvantage: math.Inf(1)}, false},
		{"freq advantage overflows clock", Config{FreqAdvantage: 1e300}, false},
		{"metrics without label", Config{Obs: metricsSink}, false},
		{"metrics with label", Config{Obs: metricsSink, Label: "x"}, true},
		{"metrics without counter sink", Config{Obs: &obs.Sink{Metrics: buf}, Label: "x"}, false},
		{"label optional without metrics", Config{Obs: &obs.Sink{}}, true},
		{"histogram miss zero", Config{Policy: PETHistogram, HistogramMiss: 0}, true},
		{"histogram miss one", Config{Policy: PETHistogram, HistogramMiss: 1}, true},
		{"histogram miss negative", Config{Policy: PETHistogram, HistogramMiss: -3}, false},
		{"histogram miss above one", Config{Policy: PETHistogram, HistogramMiss: 1.5}, false},
		{"histogram miss NaN", Config{Policy: PETHistogram, HistogramMiss: math.NaN()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok && !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("invalid config: err = %v, want ErrInvalidSpec", err)
			}
		})
	}
}

// TestRunEntryPointsValidate: every run entry point must reject an invalid
// config up front instead of silently misbehaving.
func TestRunEntryPointsValidate(t *testing.T) {
	bad := Config{Instances: -1}
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProcessor(s, ProcComplex, bad); err == nil {
		t.Error("RunProcessor accepted a negative instance count")
	}
	if _, err := RunComparison(clab.ByName("cnt"), bad); err == nil {
		t.Error("RunComparison accepted a negative instance count")
	}
	plan := &Plan{Name: "bad", Jobs: []Job{{Bench: clab.ByName("cnt"), Config: bad}}}
	if _, err := (&Engine{Workers: 2}).Run(plan); err == nil {
		t.Error("Engine.Run accepted a plan with a negative instance count")
	} else if !strings.Contains(err.Error(), "plan bad job 0 (cnt)") {
		t.Errorf("engine validation error does not locate the job: %v", err)
	}
}

// TestGetSetupConcurrent hits GetSetup from 8 goroutines on a benchmark
// whose cache entry has been cleared: under -race this proves the
// memoization is data-race free, and all callers must observe the same
// Setup pointer (built exactly once).
func TestGetSetupConcurrent(t *testing.T) {
	setupCache.Delete("mm")
	const goroutines = 8
	ptrs := make([]*Setup, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ptrs[g], errs[g] = GetSetup(clab.ByName("mm"))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d observed a different Setup: build ran more than once", g)
		}
	}
}

// TestBoostedTableConcurrent: the per-setup boosted-table cache must also
// be safe under concurrent callers (Figure 3 jobs on the same benchmark).
func TestBoostedTableConcurrent(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = s.BoostedTable(1.5)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestProcStringAndParse(t *testing.T) {
	if ProcComplex.String() != "complex" || ProcSimpleFixed.String() != "simple-fixed" {
		t.Errorf("Proc strings wrong: %q / %q", ProcComplex, ProcSimpleFixed)
	}
	for in, want := range map[string]Proc{
		"complex": ProcComplex, "simple": ProcSimpleFixed, "simple-fixed": ProcSimpleFixed,
	} {
		got, err := ParseProc(in)
		if err != nil || got != want {
			t.Errorf("ParseProc(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseProc("quantum"); err == nil {
		t.Error("ParseProc accepted an unknown processor")
	}
}

package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"visa/internal/clab"
	"visa/internal/obs"
	"visa/internal/rt"
)

// Input sizes. workers is the number of goroutines doing work in every
// workload (the reference host has two cores).
const (
	workers = 2

	// evalInstances is the task instances per eval-steady job: one pass of
	// both plans takes about two seconds, so a run has several throughput
	// windows.
	evalInstances      = 10
	quickEvalInstances = 4
)

// benchesFor returns the C-lab benchmarks a run uses: all six, or two
// small ones under -quick.
func benchesFor(cfg config) []*clab.Benchmark {
	if cfg.quick {
		return []*clab.Benchmark{clab.Cnt, clab.FFT}
	}
	return clab.All()
}

// goldenKey prefixes quick-mode keys: their inputs differ.
func goldenKey(cfg config, key string) string {
	if cfg.quick {
		return "quick/" + key
	}
	return key
}

// buildSetups builds every benchmark's rt.Setup (program, analyzer, WCET
// table, profile) on the worker goroutines, largest program first.
func buildSetups(benches []*clab.Benchmark) ([]*rt.Setup, error) {
	out := make([]*rt.Setup, len(benches))
	errs := make([]error, len(benches))
	order := make(chan int, len(benches)) // sized to the number of sends
	for _, i := range bySize(benches) {
		order <- i
	}
	close(order)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range order {
				out[i], errs[i] = rt.GetSetup(benches[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", benches[i].Name, err)
		}
	}
	return out, nil
}

// bySize orders benchmark indices by source size, largest first: a cheap
// static proxy for analysis and simulation cost (adpcm first).
func bySize(benches []*clab.Benchmark) []int {
	idx := make([]int, len(benches))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && len(benches[idx[j]].Source) > len(benches[idx[j-1]].Source); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// newWorkDir makes a fresh directory under .bench_build for files a run
// writes (journals); close removes it.
func newWorkDir(cfg config, name string) (string, error) {
	base := cfg.workDir
	if base == "" {
		base = ".bench_build/work"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// evalSteady is the steady-state periodic simulation: the Figure 2 and
// Figure 4 plans over all six benchmarks on a two-worker engine, repeated
// whole until the deadline. Set-up builds every rt.Setup (the WCET tables
// are the bulk of it); the timed phase does no WCET work.
type evalSteady struct {
	cfg       config
	benches   []*clab.Benchmark
	instances int
	setups    []*rt.Setup

	mu    sync.Mutex
	texts map[string]string // plan name -> first report text
	runs  map[string]int
}

func newEvalSteady(cfg config) workload {
	e := &evalSteady{cfg: cfg, benches: benchesFor(cfg), instances: evalInstances,
		texts: map[string]string{}, runs: map[string]int{}}
	if cfg.quick {
		e.instances = quickEvalInstances
	}
	return e
}

func (e *evalSteady) plans() []*rt.Plan {
	return []*rt.Plan{rt.Figure2Plan(e.benches, e.instances), rt.Figure4Plan(e.benches, e.instances)}
}

// window is one pass: the jobs of both plans. The engine finishes one plan
// before the next starts, so windows end where passes do.
func (e *evalSteady) window() int {
	n := 0
	for _, p := range e.plans() {
		n += len(p.Jobs)
	}
	return n
}

func (e *evalSteady) setup(r *runner) error {
	var err error
	e.setups, err = buildSetups(e.benches)
	return err
}

func (e *evalSteady) measure(r *runner, until time.Time) error {
	for pass := 0; pass == 0 || now().Before(until); pass++ {
		for _, p := range e.plans() {
			parent := r.spans.begin(0, fmt.Sprintf("rt.Engine.Run/%s", p.Name), int64(pass))
			rep, err := (&rt.Engine{Workers: workers}).Run(timedPlan(r, p, parent, e.instances))
			r.spans.end(parent)
			if err != nil {
				return err
			}
			e.record(p.Name, rep.Text)
		}
	}
	return nil
}

// record keeps the first report text of each plan and checks that every
// later pass rendered the same bytes.
func (e *evalSteady) record(plan, text string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runs[plan]++
	if first, ok := e.texts[plan]; !ok {
		e.texts[plan] = text
	} else if text != first {
		e.texts[plan+"/differs"] = text
	}
}

func (e *evalSteady) verify(r *runner) error {
	for _, p := range e.plans() {
		text, ok := e.texts[p.Name]
		if !ok {
			return fmt.Errorf("plan %s never ran", p.Name)
		}
		if _, bad := e.texts[p.Name+"/differs"]; bad {
			r.gold.fail("eval: plan %s rendered different reports across %d passes", p.Name, e.runs[p.Name])
		}
		r.gold.golden(goldenKey(e.cfg, fmt.Sprintf("eval/%s/i%d", p.Name, e.instances)), rt.ReportHash(text))
	}
	return nil
}

func (e *evalSteady) close() error { return nil }

// timedPlan wraps each comparison job of p so the engine runs the same
// rt.RunComparison call the standard job kind makes, timed as one
// operation (and traced as one span under parent). The rows, and so the
// rendered report, are those of the unwrapped plan.
func timedPlan(r *runner, p *rt.Plan, parent, instances int) *rt.Plan {
	q := *p
	q.Jobs = make([]rt.Job, len(p.Jobs))
	for i, job := range p.Jobs {
		job := job
		req := int64(i)
		q.Jobs[i] = rt.Job{Bench: job.Bench, Run: func(sink *obs.Sink) (rt.JobResult, error) {
			start := now()
			id := r.spans.beginLane(parent, 1+int(req)%workers, "rt.RunComparison/"+job.Bench.Name, req)
			cfg := job.Config
			cfg.Obs = sink
			row, err := rt.RunComparison(job.Bench, cfg)
			r.spans.end(id)
			r.op(job.Bench.Name+" "+job.Config.Label, start, err)
			if err != nil {
				return rt.JobResult{}, err
			}
			if s, serr := rt.GetSetup(job.Bench); serr == nil {
				r.addSimInsts(2 * int64(instances) * s.DynInsts)
			}
			return rt.JobResult{Savings: row}, nil
		}}
	}
	return &q
}

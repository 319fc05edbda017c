package rt

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"visa/internal/exec"
	"visa/internal/obs"
)

// Engine executes experiment plans on a worker pool with a deterministic
// merge: however many workers run, the report's rows, rendered text, and
// metrics stream are byte-identical to a serial run.
//
// Three mechanisms give that guarantee. Each job writes its metrics into a
// private record buffer (obs.NewRecordBuffer) that the engine replays into
// Sink in plan order once the jobs finish; the job's counter traffic
// coalesces through a private obs.CoalescingSink over that buffer, so the
// merged stream carries Θ(distinct series) counter records, not one per
// event. Rows are stored at the job's plan index, so renderers see plan
// order regardless of completion order.
// And job failures are stored at the job's plan index too, so the report's
// failure section and Err() are plan-order deterministic.
//
// The engine runs each job once and is crash-proof: a panicking job is
// converted to a PanicError at its index rather than taking the process
// (and the other workers) down, and a job exceeding its cycle budget fails
// with ErrCycleBudget. Failed jobs degrade gracefully — the Report still
// carries every other job's row and metrics.
type Engine struct {
	// Workers is the pool size; <= 0 selects runtime.NumCPU().
	Workers int

	// Sink receives the merged metrics stream. Attaching a Tracer forces
	// serial execution: its timeline is shared mutable state that only an
	// in-order run keeps deterministic.
	Sink *obs.Sink

	// CycleBudget, when > 0, is applied as Config.CycleBudget to every
	// standard job whose config leaves it unset — a per-task watchdog on
	// the simulation itself, so one runaway job cannot hang the plan.
	CycleBudget int64

	// OnJobDone, when non-nil, is called once per job as it completes —
	// in completion order, from the worker goroutines, so the callback
	// must be safe for concurrent use. recs is the job's buffered metrics
	// stream (nil when metrics are off). The service layer streams per-job
	// results through this hook; consumers needing plan order key on i.
	OnJobDone func(i int, res JobResult, recs []obs.Record, err error)
}

// PanicError is a job panic captured by the engine's recovery barrier. Its
// Error string deliberately excludes the stack trace (goroutine ids and
// addresses vary run to run); the stack is kept as a field for debugging.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack at recovery time
}

func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Run validates every job, executes the plan, merges results in plan
// order, and renders the report text. Configuration errors are hard
// failures (nil Report); execution failures — panics, budget overruns —
// degrade gracefully into Report.Errors.
func (e *Engine) Run(p *Plan) (*Report, error) {
	jobs := make([]Job, len(p.Jobs))
	copy(jobs, p.Jobs)
	// Validate against a sink shaped like the per-job sinks the engine
	// injects at run time.
	shape := e.jobSink(false)
	for i := range jobs {
		if jobs[i].Run != nil {
			continue // custom jobs own their inputs
		}
		if e.CycleBudget > 0 && jobs[i].Config.CycleBudget == 0 {
			jobs[i].Config.CycleBudget = e.CycleBudget
		}
		cfg := jobs[i].Config
		cfg.Obs = shape
		if err := cfg.Validate(); err != nil {
			// Validate's errors wrap ErrInvalidSpec; keep that root visible
			// through the plan/job attribution.
			return nil, fmt.Errorf("rt: plan %s job %d (%s): %w", p.Name, i, jobs[i].name(), err)
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if e.sink().T() != nil {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]JobResult, len(jobs))
	errs := make([]error, len(jobs))
	bufs := make([]*obs.MetricsWriter, len(jobs))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], bufs[i], errs[i] = e.runOnce(jobs[i], workers == 1)
				if e.OnJobDone != nil {
					e.OnJobDone(i, results[i], bufs[i].Records(), errs[i])
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Deterministic merge: replay every job's records in plan order. A
	// failed job contributes whatever it wrote before failing, and the
	// jobs after it still contribute in full (graceful degradation).
	mw := e.sink().M()
	failed := 0
	for i := range jobs {
		bufs[i].Replay(mw)
		if errs[i] != nil {
			failed++
		}
	}

	rep := &Report{Plan: p, Results: results, Errors: errs, Failed: failed}
	if p.Render != nil {
		rep.Text = p.Render(rep)
	}
	if failed > 0 {
		rep.Text += failureSection(p, errs, failed)
	}
	return rep, nil
}

// runOnce executes one job under the panic barrier on a fresh per-job
// sink, then flushes the job's counters into its record buffer.
func (e *Engine) runOnce(job Job, serial bool) (JobResult, *obs.MetricsWriter, error) {
	sink := e.jobSink(serial)
	res, err := safeRun(job, sink)
	if cerr := sink.C().Close(); cerr != nil && err == nil {
		err = cerr
	}
	return res, sink.M(), classify(err)
}

// jobSink builds one job's private sink. With metrics on, it carries a
// fresh record buffer and a coalescing counter sink over it (closed at job
// end, which flushes every dirty series). Serial runs also share the
// engine's tracer directly: jobs arrive in order.
func (e *Engine) jobSink(serial bool) *obs.Sink {
	sink := &obs.Sink{}
	if e.sink().M() != nil {
		sink.Metrics = obs.NewRecordBuffer()
		sink.Counters = obs.NewCoalescingSink(sink.Metrics, obs.CoalesceOptions{})
	}
	if serial {
		sink.Trace = e.sink().T()
	}
	return sink
}

// classify roots job failures in the exported sentinels so the service
// boundary maps them with errors.Is: a functional-machine budget overrun
// (*exec.BudgetError) joins ErrBudgetExceeded alongside the pipeline-level
// ErrCycleBudget, which already wraps it.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var be *exec.BudgetError
	if !errors.Is(err, ErrBudgetExceeded) && errors.As(err, &be) {
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, err)
	}
	return err
}

// safeRun is the crash barrier: a panic inside the job becomes a
// PanicError return instead of unwinding through the worker pool.
func safeRun(job Job, sink *obs.Sink) (res JobResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = JobResult{}
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return runJob(job, sink)
}

// failureSection renders the deterministic failed-jobs appendix of a
// degraded report.
func failureSection(p *Plan, errs []error, failed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nFAILED JOBS (%d/%d):\n", failed, len(errs))
	idxs := make([]int, 0, failed)
	for i, err := range errs {
		if err != nil {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		fmt.Fprintf(&b, "  job %d (%s): %v\n", i, p.Jobs[i].name(), errs[i])
	}
	return b.String()
}

// sink returns the engine's sink, which may be nil (instrumentation off).
func (e *Engine) sink() *obs.Sink { return e.Sink }

// runJob executes one job against the given (per-job) sink.
func runJob(job Job, sink *obs.Sink) (JobResult, error) {
	if job.Run != nil {
		return job.Run(sink)
	}
	switch job.Kind {
	case JobTable3:
		row, err := table3Row(job.Bench, sink)
		if err != nil {
			return JobResult{}, err
		}
		return JobResult{Table3: &row}, nil
	case JobSafety:
		cfg := job.Config
		cfg.Obs = sink
		row, err := runSafetyJob(job.Bench, cfg)
		if err != nil {
			return JobResult{}, err
		}
		return JobResult{Safety: row}, nil
	default:
		cfg := job.Config
		cfg.Obs = sink
		row, err := RunComparison(job.Bench, cfg)
		if err != nil {
			return JobResult{}, err
		}
		return JobResult{Savings: row}, nil
	}
}

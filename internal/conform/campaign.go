package conform

import (
	"fmt"
	"strings"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/obs"
	"visa/internal/rt"
)

// DefaultPrograms is the campaign's generated-program count.
const DefaultPrograms = 200

// Campaign parameterizes the conformance sweep: N seeded random programs
// plus every supplied benchmark, each swept through the full oracle.
type Campaign struct {
	// Seed is the campaign base seed; program i's seed derives from it, so
	// one campaign seed names the whole corpus.
	Seed uint64

	// N overrides DefaultPrograms when > 0.
	N int

	// Points restricts the operating-point sweep (empty = all).
	Points []int
}

func (c Campaign) programs() int {
	if c.N > 0 {
		return c.N
	}
	return DefaultPrograms
}

// ProgramSeed returns generated program i's seed — also what
// `visasim -conform -gen` takes to replay it.
func (c Campaign) ProgramSeed(i int) uint64 {
	return fault.DeriveSeed(c.Seed, uint64(i))
}

// BenchSeed derives a stable per-benchmark seed (for the fault-spec
// streams) from the benchmark name alone, so a bench cell replays with
// just `visasim -conform -bench <name>`.
func BenchSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// Row is one checked program's summary (JobResult.Custom).
type Row struct {
	Name     string
	Seed     uint64 // 0 for benchmarks
	DynInsts int64
	SubTasks int
	Points   int
	Runs     int
}

// CampaignPlan builds the conformance campaign as an experiment plan:
// every program is an independent job, so the engine parallelizes the
// sweep and merges rows and metrics deterministically for any worker
// count. A job fails — with a minimized one-command reproducer in its
// error — exactly when the oracle finds an invariant violation.
func CampaignPlan(benches []*clab.Benchmark, c Campaign) *rt.Plan {
	var jobs []rt.Job
	for i := 0; i < c.programs(); i++ {
		seed := c.ProgramSeed(i)
		jobs = append(jobs, rt.Job{Run: genJob(seed, c.Points)})
	}
	for _, b := range benches {
		jobs = append(jobs, rt.Job{Bench: b, Run: benchJob(b, c.Points)})
	}
	return &rt.Plan{
		Name:   "conform",
		Jobs:   jobs,
		Render: renderConform,
	}
}

// genJob checks one generated program; on violation it minimizes and
// fails with the reproducer.
func genJob(seed uint64, points []int) func(*obs.Sink) (rt.JobResult, error) {
	return func(sink *obs.Sink) (rt.JobResult, error) {
		g := GenProgram(seed)
		prog, err := g.Program()
		if err != nil {
			return rt.JobResult{}, err
		}
		opt := Options{Points: points, Faults: DefaultFaults(seed)}
		res, err := Check(prog, opt)
		if err != nil {
			return rt.JobResult{}, err
		}
		if len(res.Violations) > 0 {
			repro, rerr := Minimize(g, opt, res)
			if rerr != nil {
				return rt.JobResult{}, fmt.Errorf("%s (and minimization failed: %v)",
					violationSummary(res), rerr)
			}
			return rt.JobResult{}, fmt.Errorf("%s; minimized repro: %s",
				violationSummary(res), repro)
		}
		return rowResult(sink, res, seed), nil
	}
}

// benchJob checks one embedded benchmark; its replay command needs no
// seed, only the benchmark name.
func benchJob(b *clab.Benchmark, points []int) func(*obs.Sink) (rt.JobResult, error) {
	return func(sink *obs.Sink) (rt.JobResult, error) {
		prog, err := b.Program()
		if err != nil {
			return rt.JobResult{}, err
		}
		opt := Options{Points: points, Faults: DefaultFaults(BenchSeed(b.Name))}
		res, err := Check(prog, opt)
		if err != nil {
			return rt.JobResult{}, err
		}
		if len(res.Violations) > 0 {
			return rt.JobResult{}, fmt.Errorf("%s; replay: visasim -conform -bench %s",
				violationSummary(res), b.Name)
		}
		return rowResult(sink, res, 0), nil
	}
}

func violationSummary(res *Result) string {
	max := 3
	var parts []string
	for i, v := range res.Violations {
		if i == max {
			parts = append(parts, fmt.Sprintf("... %d more", len(res.Violations)-max))
			break
		}
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("conformance violations (%d): %s",
		len(res.Violations), strings.Join(parts, "; "))
}

func rowResult(sink *obs.Sink, res *Result, seed uint64) rt.JobResult {
	row := &Row{
		Name:     res.Name,
		Seed:     seed,
		DynInsts: res.DynInsts,
		SubTasks: res.SubTasks,
		Points:   res.Points,
		Runs:     res.Runs,
	}
	// The per-program scalars accumulate as campaign totals and only the
	// net counters reach the durable stream.
	cs := sink.C()
	cs.Add("conform.programs", 1)
	cs.Add("conform.instructions", row.DynInsts)
	cs.Add("conform.timing_runs", int64(row.Runs))
	return rt.JobResult{Custom: row}
}

// renderConform formats the campaign report from the plan-ordered rows:
// one line per program that disagreed with any model, plus an aggregate
// footer, so 200 passing programs stay readable.
func renderConform(rep *rt.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CONFORMANCE CAMPAIGN. %d programs x (exec, simple, OOO simple-mode, WCET).\n",
		len(rep.Plan.Jobs))
	var programs, runs int
	var insts int64
	for i, r := range rep.Results {
		if err := rep.Errors[i]; err != nil {
			name := fmt.Sprintf("job %d", i)
			if bench := rep.Plan.Jobs[i].Bench; bench != nil {
				name = bench.Name
			}
			fmt.Fprintf(&b, "  FAIL %s: %v\n", name, err)
			continue
		}
		row, ok := r.Custom.(*Row)
		if !ok {
			continue
		}
		programs++
		runs += row.Runs
		insts += row.DynInsts
		if row.Seed == 0 {
			fmt.Fprintf(&b, "  %-10s %8d insts  %d sub-tasks  %3d points  %4d runs  ok\n",
				row.Name, row.DynInsts, row.SubTasks, row.Points, row.Runs)
		}
	}
	fmt.Fprintf(&b, "  %d programs conform: I1-I4 held over %d timing runs (%d dynamic instructions).\n",
		programs, runs, insts)
	if rep.Failed > 0 {
		fmt.Fprintf(&b, "  %d programs FAILED (reproducers above).\n", rep.Failed)
	}
	return b.String()
}

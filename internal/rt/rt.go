// Package rt is the experiment harness: it executes periodic hard
// real-time task sets on both processors under the VISA framework and
// regenerates the paper's evaluation (Table 3, Figures 2-4). Each
// experiment runs a benchmark 200 consecutive times as a periodic task
// (§5.3), with frequency speculation, run-time PET profiling, checkpoint
// enforcement via the watchdog counter, and Wattch-style energy accounting,
// asserting after every instance that the hard deadline was met.
package rt

import (
	"fmt"
	"math"
	"sync"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/obs"
	"visa/internal/power"
	"visa/internal/wcet"
)

// Tuning constants shared by all experiments.
const (
	// TightFactor and LooseFactor set the two deadlines relative to the
	// task WCET at 1 GHz (paper §5.3: the tight deadline pushes
	// simple-fixed above 800 MHz, the loose one to around 600 MHz).
	TightFactor = 1.35
	LooseFactor = 1.80

	// OvhdNs is the fixed frequency/voltage/mode switch overhead charged
	// by EQ 1-4.
	OvhdNs = 1500.0

	// Instances is the number of consecutive task executions per
	// experiment (§5.3).
	Instances = 200

	// ReevalEvery is the PET re-evaluation cadence (§4.3).
	ReevalEvery = 10

	// LastNWindow is the last-N policy's window (§4.3).
	LastNWindow = 10

	// SimpleModeScale approximates complex-mode cycles from simple-mode
	// cycles when reconstructing the AET of a mispredicted sub-task
	// (§4.3: "scale down the number of cycles spent in simple mode ...
	// based on the relative performance of the complex and simple modes").
	SimpleModeScale = 0.30

	// DVSSoftwareCycles approximates the PET re-evaluation / re-planning
	// software that runs every tenth task (§5.2, charged in time & power).
	DVSSoftwareCycles = 2000
)

// Proc selects one of the two processor models an experiment can run.
type Proc int

const (
	// ProcSimpleFixed is the explicitly-safe simple pipeline at a fixed
	// frequency (the paper's baseline).
	ProcSimpleFixed Proc = iota
	// ProcComplex is the VISA-compliant out-of-order core.
	ProcComplex
)

func (p Proc) String() string {
	if p == ProcComplex {
		return "complex"
	}
	return "simple-fixed"
}

// ParseProc maps a command-line spelling to a Proc.
func ParseProc(s string) (Proc, error) {
	switch s {
	case "complex":
		return ProcComplex, nil
	case "simple", "simple-fixed":
		return ProcSimpleFixed, nil
	}
	return 0, errf("rt: unknown processor %q (want simple or complex)", s)
}

// Setup bundles everything derived statically from one benchmark: the
// compiled program, the analyzer, the profile-derived D-cache pad, and the
// per-operating-point WCET table. Building it is expensive (a full
// analysis pass, then 36 passes that re-simulate only the loop phases that
// depend on the miss penalty, plus the profiling runs), so it is cached per
// benchmark.
type Setup struct {
	Bench    *clab.Benchmark
	Prog     *isa.Program
	Analyzer *wcet.Analyzer
	Table    *core.WCETTable
	DPad     []int64

	// SteadySimpleCycles / SteadyComplexCycles are steady-state single-task
	// actual times at 1 GHz (Table 3 "actual time" rows).
	SteadySimpleCycles  int64
	SteadyComplexCycles int64
	DynInsts            int64

	// trace is the benchmark's committed stream on its built-in input
	// (seed 0), recorded once here; every task on that input replays it
	// instead of executing (see procSim.start).
	trace *exec.Trace

	mu         sync.Mutex // guards the boosted-table cache
	boosted    *core.WCETTable
	boostedAdv float64
}

// setupEntry memoizes one benchmark's Setup build (success or failure).
type setupEntry struct {
	once sync.Once
	s    *Setup
	err  error
}

var setupCache sync.Map // benchmark name -> *setupEntry

// GetSetup builds (or returns the cached) setup for a benchmark. It is safe
// for concurrent callers: each benchmark is built exactly once (errors are
// cached too, so a failing build is not retried), and different benchmarks
// build in parallel rather than serializing on one lock.
func GetSetup(b *clab.Benchmark) (*Setup, error) {
	e, _ := setupCache.LoadOrStore(b.Name, &setupEntry{})
	ent := e.(*setupEntry)
	ent.once.Do(func() { ent.s, ent.err = buildSetup(b) })
	return ent.s, ent.err
}

func buildSetup(b *clab.Benchmark) (*Setup, error) {
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	an, err := wcet.New(prog)
	if err != nil {
		return nil, err
	}
	s, err := NewSetup(an)
	if err != nil {
		return nil, err
	}
	s.Bench = b
	return s, nil
}

// NewSetup builds the Setup of an's program (Bench stays nil). It is the
// one recipe for a WCET table: an is padded with the per-sub-task D-cache
// misses of a cold run on the simple pipeline at 1 GHz, then tabulated at
// every operating point.
func NewSetup(an *wcet.Analyzer) (*Setup, error) {
	prog := an.Prog
	trace, err := exec.Record(exec.New(prog))
	if err != nil {
		return nil, err
	}

	// Profile on the simple pipeline at 1 GHz. The first (cold) run yields
	// the per-sub-task D-cache miss pad — the paper's trace-derived
	// padding, which must cover the worst (cold) case. A steady-state run
	// supplies the Table 3 "actual time" values, since the paper's task is
	// periodic. All four profile runs replay the recorded trace.
	sim := newProcSim(prog, ProcSimpleFixed, 1000)
	sim.trace = trace
	cold, err := sim.profile()
	if err != nil {
		return nil, err
	}
	sim.rebase(0)
	warm, err := sim.profile()
	if err != nil {
		return nil, err
	}
	if err := an.SetDCachePad(cold.dMisses); err != nil {
		return nil, err
	}
	table, err := core.BuildWCETTable(an)
	if err != nil {
		return nil, err
	}

	cx := newProcSim(prog, ProcComplex, 1000)
	cx.trace = trace
	if _, err := cx.profile(); err != nil {
		return nil, err
	}
	cx.rebase(0)
	cxWarm, err := cx.profile()
	if err != nil {
		return nil, err
	}

	s := &Setup{
		Prog:                prog,
		Analyzer:            an,
		Table:               table,
		DPad:                cold.dMisses,
		SteadySimpleCycles:  warm.totalCycles,
		SteadyComplexCycles: cxWarm.totalCycles,
		DynInsts:            int64(trace.Len()),
		trace:               trace,
	}
	return s, nil
}

// BoostedTable returns a WCET table for simple-fixed granted a frequency
// advantage at equal voltage (Figure 3): every operating point's frequency
// is multiplied by adv, keeping the base table's voltages.
func (s *Setup) BoostedTable(adv float64) (*core.WCETTable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.boosted != nil && s.boostedAdv == adv {
		return s.boosted, nil
	}
	pts := power.Points()
	for i := range pts {
		pts[i].FMHz = int(float64(pts[i].FMHz) * adv)
	}
	t, err := core.BuildWCETTableAt(s.Analyzer, pts)
	if err != nil {
		return nil, err
	}
	s.boosted, s.boostedAdv = t, adv
	return t, nil
}

// Deadline returns the tight or loose deadline in ns.
func (s *Setup) Deadline(tight bool) float64 {
	base := s.Table.TotalTimeNs(len(s.Table.Points) - 1)
	if tight {
		return base * TightFactor
	}
	return base * LooseFactor
}

// WCETSeedPETs returns initial PET values (cycles at 1 GHz) equal to the
// WCET bounds, so the very first plan is conservative.
func (s *Setup) WCETSeedPETs() []float64 {
	last := len(s.Table.Points) - 1
	pets := make([]float64, s.Table.NumSubTasks())
	for k := range pets {
		pets[k] = float64(s.Table.Cycles[last][k])
	}
	return pets
}

// profileResult is a single-instance cold run.
type profileResult struct {
	totalCycles int64
	dMisses     []int64
}

// profile runs one task instance on the recorded input and collects its
// cycles and per-sub-task D-cache misses.
func (ps *procSim) profile() (*profileResult, error) {
	if err := ps.start(0); err != nil {
		return nil, err
	}
	nSub := ps.prog.NumSubTasks()
	res := &profileResult{dMisses: make([]int64, maxInt(nSub, 1))}
	cur := -1
	var lastDC cache.Stats
	var batch [64]exec.DynInst
	for {
		n, err := ps.fill(batch[:])
		for bi := range batch[:n] {
			d := &batch[bi]
			if d.Inst.Op == isa.MARK {
				if cur >= 0 {
					res.dMisses[cur] = ps.dc.Stats().Delta(lastDC).Misses
				}
				cur = int(d.Inst.Imm)
				lastDC = ps.dc.Stats()
			}
			ps.feed(d)
		}
		if err != nil {
			return nil, err
		}
		if n < len(batch) {
			break
		}
	}
	if cur >= 0 {
		res.dMisses[cur] = ps.dc.Stats().Delta(lastDC).Misses
	}
	res.totalCycles = ps.now()
	return res, nil
}

// Config parameterizes one experiment run. It is also the wire form of a
// job's configuration (JobSpec.Config): the JSON tags give the canonical
// field order, every field is omitted at its zero value, and the policy and
// fault plan encode as their text spellings. Obs does not serialize — the
// engine owns instrumentation. The zero value is the default run.
type Config struct {
	// Policy selects the run-time PET estimation policy (§4.3); the zero
	// value is PETLastN. PETHistogram targets the HistogramMiss
	// misprediction rate.
	Policy PETPolicy `json:"policy,omitempty"`

	Tight bool `json:"tight,omitempty"`

	// Standby enables the Wattch 10% standby-power variant.
	Standby bool `json:"standby,omitempty"`

	// FreqAdvantage multiplies simple-fixed's frequency at equal voltage
	// (Figure 3 uses 1.5; 1.0 otherwise). It does not affect the complex
	// processor.
	FreqAdvantage float64 `json:"freq_advantage,omitempty"`

	// FlushTasks injects mispredictions: the caches and predictors are
	// flushed at the beginning of this many of the Instances tasks, spread
	// evenly (Figure 4 uses 20/40/60 of 200).
	FlushTasks int `json:"flush_tasks,omitempty"`

	// Instances overrides the default 200 when > 0 (tests use fewer).
	Instances int `json:"instances,omitempty"`

	HistogramMiss float64 `json:"histogram_miss,omitempty"`

	VaryInputSeeds bool `json:"vary_input_seeds,omitempty"` // vary the input seed per instance

	// Fault attaches a deterministic fault-injection plan (see
	// internal/fault), spelled "kind:rate:cycles:seed" on the wire. The
	// complex processor receives the full taxonomy; the simple pipeline
	// only consumes the paranoid-safe kinds, which by construction cannot
	// violate its WCET bound. Each RunProcessor call derives a fresh
	// injector from the spec, so both processors and any worker count see
	// the identical fault stream for a given seed.
	Fault *fault.Spec `json:"fault,omitempty"`

	// CycleBudget, when > 0, aborts any task instance whose pipeline time
	// exceeds this many cycles with an error wrapping ErrCycleBudget — a
	// per-job timeout in the simulated-time domain for runaway simulations.
	CycleBudget int64 `json:"cycle_budget,omitempty"`

	// Label prefixes this run's metric records and counter names so one
	// sink can host many experiments.
	Label string `json:"label,omitempty"`

	// Obs attaches the instrumentation sink: a metrics writer and the
	// coalescing counter sink the run's counters flow through (the engine
	// builds both per job). A nil sink — the default — disables metrics at
	// no cost.
	Obs *obs.Sink `json:"-"`
}

// Validate rejects configurations that would otherwise silently misbehave.
// Every run entry point (RunProcessor, RunComparison, Engine.Run)
// calls it before doing any work. All rejections wrap ErrInvalidSpec, so
// service boundaries classify them with errors.Is.
func (c Config) Validate() error {
	if !c.Policy.Valid() {
		return invalidf("config: unknown PETPolicy (%d)", int(c.Policy))
	}
	// The negated form also rejects NaN.
	if !(c.HistogramMiss >= 0 && c.HistogramMiss <= 1) {
		return invalidf("config: HistogramMiss %g outside [0, 1]", c.HistogramMiss)
	}
	if c.Instances < 0 {
		return invalidf("config: negative Instances (%d)", c.Instances)
	}
	if c.FlushTasks < 0 {
		return invalidf("config: negative FlushTasks (%d)", c.FlushTasks)
	}
	if c.FlushTasks > c.instances() {
		return invalidf("config: FlushTasks (%d) exceeds Instances (%d)",
			c.FlushTasks, c.instances())
	}
	if adv := c.FreqAdvantage; adv != 0 {
		// The negated form also rejects NaN. The boosted top point must
		// fit an int32 clock, or BoostedTable's conversion overflows.
		if !(adv >= 1) {
			return invalidf("config: FreqAdvantage %g < 1 would slow simple-fixed down (use 0 or >= 1)", adv)
		}
		if !(float64(power.MaxPoint().FMHz)*adv <= math.MaxInt32) {
			return invalidf("config: FreqAdvantage %g overflows the boosted %d MHz clock", adv, power.MaxPoint().FMHz)
		}
	}
	if c.Obs.M() != nil && c.Label == "" {
		return invalidf("config: empty Label with metrics attached (records would be unattributable)")
	}
	if c.Obs.M() != nil && c.Obs.C() == nil {
		return invalidf("config: metrics attached without a coalescing counter sink (counters would be lost)")
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return invalidf("config: %v", err)
		}
	}
	if c.CycleBudget < 0 {
		return invalidf("config: negative CycleBudget (%d)", c.CycleBudget)
	}
	return nil
}

// obsPrefix builds the counter and instrument name prefix for one
// processor's run.
func (c Config) obsPrefix(bench, proc string) string {
	p := bench + "." + proc
	if c.Label != "" {
		p = c.Label + "." + p
	}
	return p
}

func (c Config) instances() int {
	if c.Instances > 0 {
		return c.Instances
	}
	return Instances
}

// ProcResult summarizes one processor's 200-instance run.
type ProcResult struct {
	Name string

	Energy   float64
	AvgPower float64 // energy / (instances * period)

	// MissedTasks counts instances with a missed checkpoint (complex) or
	// PET misprediction recovery (simple-fixed).
	MissedTasks int

	// DeadlineViolations must be zero: the safety property.
	DeadlineViolations int

	// FinalSpecMHz / FinalRecMHz are the plan frequencies after PET
	// adaptation converges (reported like the paper's §6.2 narrative).
	FinalSpecMHz int
	FinalRecMHz  int

	// SimpleModeTasks counts tasks that spent time in simple mode.
	SimpleModeTasks int

	// FaultsInjected counts faults the Config.Fault plan actually injected.
	FaultsInjected int64

	// WCETExceedances counts sub-tasks of unswitched simple-fixed instances
	// whose observed time exceeded the WCET bound at the plan frequency. It
	// must be zero: the bound is the safety anchor, and the paranoid fault
	// envelope is constructed so that no injection can breach it.
	WCETExceedances int

	// Acct exposes the energy accounting for breakdown reports.
	Acct *power.Accounting
}

// Savings returns 1 - complex/simple power.
func Savings(complexRes, simpleRes *ProcResult) float64 {
	if simpleRes.AvgPower == 0 {
		return 0
	}
	return 1 - complexRes.AvgPower/simpleRes.AvgPower
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

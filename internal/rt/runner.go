package rt

import (
	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/ooo"
	"visa/internal/power"
	"visa/internal/simple"
)

// procSim bundles one processor's functional machine, cache hierarchy, and
// timing pipeline. Cache and predictor state persists across task instances
// (as on real hardware); Flush injects the Figure 4 perturbation.
type procSim struct {
	kind    Proc
	prog    *isa.Program
	machine *exec.Machine
	ic, dc  *cache.Cache
	bus     *memsys.Bus
	sp      *simple.Pipeline
	cx      *ooo.Pipeline

	// inject is the processor's fault injector (nil when Config.Fault is
	// unset); budget is Config.CycleBudget (0 = unlimited).
	inject *fault.Injector
	budget int64

	// events is the current task's accounting and recorder log (see
	// taskEvent); memo, when set, serves tasks whose start state it has
	// seen (see taskMemo).
	events []taskEvent
	memo   *taskMemo
}

func newProcSim(prog *isa.Program, kind Proc, fMHz int) *procSim {
	ps := &procSim{
		kind:    kind,
		prog:    prog,
		machine: exec.New(prog),
		ic:      cache.MustNew(cache.VISAL1),
		dc:      cache.MustNew(cache.VISAL1),
		bus:     memsys.NewBus(memsys.Default, fMHz),
	}
	if kind == ProcComplex {
		ps.cx = ooo.New(ooo.Config{}, ps.ic, ps.dc, ps.bus)
	} else {
		ps.sp = simple.New(ps.ic, ps.dc, ps.bus)
	}
	return ps
}

// start readies the functional machine for one task instance on input
// seed: reset, then seeded unless seed is the built-in input (0). Nothing
// in rt reads a task's outputs, so the machine keeps its previous output
// arrays, truncated, instead of the fresh ones Reset hands it.
func (ps *procSim) start(seed int32) error {
	m := ps.machine
	out, outF := m.Out[:0], m.OutF[:0]
	m.Reset()
	m.Out, m.OutF = out, outF
	if seed != 0 {
		return clab.SetSeed(ps.machine, seed)
	}
	return nil
}

func (ps *procSim) now() int64 {
	if ps.cx != nil {
		return ps.cx.Now()
	}
	return ps.sp.Now()
}

// feed times one dynamic instruction on whichever pipeline this procSim
// wraps.
//
//visa:hotpath
func (ps *procSim) feed(d *exec.DynInst) int64 {
	if ps.cx != nil {
		return ps.cx.Feed(d)
	}
	return ps.sp.Feed(d)
}

func (ps *procSim) rebase(c int64) {
	if ps.cx != nil {
		ps.cx.Rebase(c)
	} else {
		ps.sp.Rebase(c)
	}
}

func (ps *procSim) takeActivity() power.Activity {
	if ps.cx != nil {
		return ps.cx.TakeActivity()
	}
	return ps.sp.TakeActivity()
}

func (ps *procSim) flush() {
	ps.memo.forget()
	ps.ic.Flush()
	ps.dc.Flush()
	if ps.cx != nil {
		ps.cx.FlushPredictors()
	}
}

// attachInjector wires a fault plan into the datapath. The complex core
// consults the full taxonomy in complex mode and only the clamped paranoid
// jitter once it has switched to simple mode; the explicitly-safe pipeline
// consumes nothing but the paranoid hooks, so adversarial kinds cannot
// touch the safety anchor.
func (ps *procSim) attachInjector(inj *fault.Injector) {
	ps.inject = inj
	if ps.cx != nil {
		ps.cx.Inject = inj
		ps.cx.SimpleEngine().Inject = inj
	} else {
		ps.sp.Inject = inj
	}
}

// taskResult is one task instance's outcome.
type taskResult struct {
	timeNs float64
	// aets is each sub-task's AET in cycles-at-1GHz (ns@1GHz). It is
	// read-only once runTask returns: the task memo hands one slice to
	// every instance it serves.
	aets      []float64
	missed    bool
	simpleNs  float64 // time spent in recovery (simple mode / recovery freq)
	endCycles int64   // pipeline cycles at task end (engine latency)
}

// taskEvent is one accounting or recorder happening of a task: a power
// segment at volts, a passed checkpoint's watchdog margin, or a recovery
// switch's drain window. runTask logs them in order and the caller applies
// them, so a task the memo serves accounts exactly as a simulated one.
type taskEvent struct {
	kind   eventKind
	act    power.Activity
	volts  float64
	cycles int64
}

type eventKind uint8

const (
	evSegment eventKind = iota
	evMargin
	evDrain
)

// apply adds the event to the run's energy account or recorder.
func (ev *taskEvent) apply(acct *power.Accounting, rec *runRecorder) {
	switch ev.kind {
	case evSegment:
		acct.AddSegment(ev.act, ev.volts)
	case evMargin:
		rec.checkpoint(ev.cycles)
	case evDrain:
		rec.checkpointMiss(ev.cycles)
	}
}

// segment logs the pipeline's activity since the last segment as one
// power segment of the given cycle length at volts.
func (ps *procSim) segment(cycles int64, volts float64) {
	a := ps.takeActivity()
	a.Cycles = cycles
	ps.events = append(ps.events, taskEvent{kind: evSegment, act: a, volts: volts})
}

// runTask executes one task instance under the plan and returns its
// timing, leaving its energy segments and recorder observations in
// ps.events. It implements the §2.2/§4.2 protocol: watchdog armed at task
// start, advanced at each sub-task boundary, and on expiry the processor
// drains, switches to the recovery frequency (and, on the complex core, to
// simple mode), masking further checkpoint exceptions.
func (ps *procSim) runTask(plan *core.Plan, seed int32) (taskResult, error) {
	ps.events = ps.events[:0]
	if err := ps.start(seed); err != nil {
		return taskResult{}, err
	}
	fs, fr := plan.Spec, plan.Rec
	ps.bus.SetFreq(fs.FMHz)
	ps.rebase(0)

	nSub := ps.prog.NumSubTasks()
	res := taskResult{aets: make([]float64, maxInt(nSub, 1))}
	curSub := -1
	var aetBoundary int64
	var switchAt, switchStart int64
	switched := false
	pendingSwitch := false // conventional: switch at next sub-task boundary

	var wd core.Watchdog
	if plan.Speculating {
		wd.Arm(plan.WatchdogInit)
		if ps.cx != nil && plan.WatchdogInit <= 0 {
			// The first checkpoint is already unreachable (degenerate
			// plan): the complex pipeline must not run unprotected, so the
			// whole task executes in simple mode at the recovery point —
			// the VISA-safe configuration. AETs are scale-estimated as for
			// any recovery-mode execution.
			ps.cx.SwitchToSimple(0)
			ps.bus.SetFreq(fr.FMHz)
			fs = fr
			switched = true
		}
	}

	doFreqSwitch := func(now int64) {
		ps.segment(now, fs.Volts)
		switched = true
		switchAt = now
		switchStart = now
		res.missed = true
		ps.bus.SetFreq(fr.FMHz)
		ps.events = append(ps.events, taskEvent{kind: evDrain}) // EQ 2: no drain window
	}

	// Simple-mode cycles are scaled down when reconstructing a mispredicted
	// sub-task's AET (§4.3); a frequency-only switch on simple-fixed keeps
	// the same pipeline, so its cycle counts carry over unscaled.
	recScale := 1.0
	if ps.cx != nil {
		recScale = SimpleModeScale
	}
	closeSub := func(now int64) {
		if curSub < 0 {
			return
		}
		cyc := float64(now - aetBoundary)
		if switched && now > switchStart {
			pre := float64(0)
			if aetBoundary < switchAt {
				pre = float64(switchAt - aetBoundary)
			}
			post := float64(now) - float64(maxI64(switchStart, aetBoundary))
			cyc = pre + post*recScale
		}
		res.aets[curSub] = cyc
	}

	// Taking the stream in batches keeps the fused Fill loop hot and feeds
	// the pipeline from a stack-resident array instead of stepping one
	// DynInst at a time through an out parameter. Fill never buffers past
	// an error: dst[:n] holds only completed instructions, so feeding them
	// before surfacing ferr times exactly what executed.
	var batch [64]exec.DynInst
	for {
		n, ferr := ps.machine.Fill(batch[:])
		for bi := 0; bi < n; bi++ {
			d := &batch[bi]
			if d.Inst.Op == isa.MARK {
				now := ps.now()
				k := int(d.Inst.Imm)
				closeSub(now)
				if pendingSwitch {
					// Conventional recovery (EQ 2): the mispredicted sub-task
					// finished at the speculative frequency; remaining
					// sub-tasks run at the recovery frequency.
					doFreqSwitch(now)
					pendingSwitch = false
				}
				if k >= 1 && wd.Armed() {
					ps.events = append(ps.events, taskEvent{kind: evMargin, cycles: wd.Remaining(now)})
					wd.Add(now, plan.WatchdogAdd[k])
				}
				curSub = k
				aetBoundary = now
			}
			rt := ps.feed(d)
			if ps.budget > 0 && rt > ps.budget {
				return res, errf("rt: %w: %d cycles > budget %d", ErrCycleBudget, rt, ps.budget)
			}
			if !switched && !pendingSwitch && wd.Expired(rt) {
				wd.Disarm()
				if ps.cx != nil {
					// Missed checkpoint on the VISA-compliant core (§2.2):
					// drain, account the speculative segment, and re-configure
					// into simple mode at the recovery frequency.
					ps.segment(rt, fs.Volts)
					switched = true
					switchAt = rt
					res.missed = true
					switchStart = ps.cx.SwitchToSimple(rt)
					ps.bus.SetFreq(fr.FMHz)
					ps.events = append(ps.events, taskEvent{kind: evDrain, cycles: switchStart - switchAt})
				} else {
					// PET misprediction on the explicitly-safe core: finish
					// the sub-task at f_spec, then switch frequency.
					pendingSwitch = true
				}
			}
		}
		if ferr != nil {
			return res, ferr
		}
		if n < len(batch) {
			break // machine halted
		}
	}
	if pendingSwitch {
		now := ps.now()
		doFreqSwitch(now)
	}
	end := ps.now()
	closeSub(end)
	res.endCycles = end

	if !switched {
		ps.segment(end, fs.Volts)
		res.timeNs = float64(end) * 1000 / float64(fs.FMHz)
	} else {
		ps.segment(end-switchStart, fr.Volts)
		res.timeNs = float64(switchAt)*1000/float64(fs.FMHz) +
			OvhdNs +
			float64(end-switchStart)*1000/float64(fr.FMHz)
		res.simpleNs = float64(end-switchStart) * 1000 / float64(fr.FMHz)
	}
	return res, nil
}

// RunProcessor executes the full periodic experiment for one processor.
func RunProcessor(s *Setup, proc Proc, cfg Config) (*ProcResult, error) {
	return runProcessor(s, proc, cfg, memoHook{})
}

// memoHook is the task memo's test hook; RunProcessor passes the zero
// value, which uses the memo wherever the run allows it.
type memoHook struct {
	off    bool       // simulate every task
	shadow shadowFunc // replaces the memo's advance on every hit
	hits   *int       // when set, receives the number of tasks the memo served
}

func runProcessor(s *Setup, proc Proc, cfg Config, hook memoHook) (*ProcResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kind := proc
	specMode := core.SpecConventional
	profile := power.SimpleFixedProfile
	table := s.Table
	if proc == ProcComplex {
		specMode = core.SpecVISA
		profile = power.ComplexProfile
	} else if cfg.FreqAdvantage > 1 {
		var err error
		table, err = s.BoostedTable(cfg.FreqAdvantage)
		if err != nil {
			return nil, err
		}
	}

	deadline := s.Deadline(cfg.Tight)
	params := core.Params{DeadlineNs: deadline, OvhdNs: OvhdNs}

	var policy core.PETPolicy
	if cfg.Policy == PETHistogram {
		policy = core.NewHistogram(table.NumSubTasks(), cfg.HistogramMiss, 100)
	} else {
		policy = core.NewLastN(table.NumSubTasks(), LastNWindow)
	}
	est := core.NewEstimator(policy, s.WCETSeedPETs(), ReevalEvery)

	plan, ok := core.Solve(specMode, params, table, est.PETs())
	if !ok {
		return nil, errf("rt: %s/%s: no feasible plan for deadline %.0f ns",
			s.Bench.Name, kind, deadline)
	}

	acct := &power.Accounting{Profile: profile, Standby: cfg.Standby}
	ps := newProcSim(s.Prog, kind, plan.Spec.FMHz)
	ps.budget = cfg.CycleBudget
	if cfg.Fault != nil {
		inj, err := fault.New(*cfg.Fault)
		if err != nil {
			return nil, err
		}
		ps.attachInjector(inj)
	}
	// The memo needs every task on one input and no injector: an injected
	// fault stream, or a new input each instance, makes each task's start
	// state new.
	if cfg.Fault == nil && !cfg.VaryInputSeeds && !hook.off {
		ps.memo = &taskMemo{shadow: hook.shadow}
	}

	rec := newRunRecorder(cfg, s.Bench.Name, ps)

	n := cfg.instances()
	// Misprediction injection starts once the PET estimator has warmed up:
	// the paper's periodic task is in steady state when Figure 4's flushes
	// perturb it. Without the warm-up, the cold first executions inflate
	// the last-N windows and no checkpoint can be missed at all.
	flushAt := flushSchedule(n, cfg.FlushTasks, 2*ReevalEvery)
	minPt := power.MinPoint()

	out := &ProcResult{Name: kind.String()}
	for i := 0; i < n; i++ {
		if flushAt[i] || ps.inject.FlushInstance() {
			ps.flush()
		}
		seed := int32(0)
		if cfg.VaryInputSeeds {
			seed = int32(1e6 + i*7919)
		}
		res, events, err := ps.task(plan, seed)
		if err != nil {
			return nil, err
		}
		for k := range events {
			events[k].apply(acct, rec)
		}
		usedNs := res.timeNs
		if res.missed {
			out.MissedTasks++
			if proc == ProcComplex {
				out.SimpleModeTasks++
			}
		}
		if res.timeNs > deadline+1e-6 {
			out.DeadlineViolations++
		}
		if proc == ProcSimpleFixed && !res.missed {
			// Unswitched instances ran wholly at f_spec, so their observed
			// sub-task times compare directly against the WCET row at that
			// point; switched instances mix timing domains and are already
			// accounted as watchdog-detected overruns. Any exceedance here
			// means the safety anchor's bound was breached.
			if pi, perr := table.PointIndex(plan.Spec.FMHz); perr == nil {
				for k := 0; k < table.NumSubTasks() && k < len(res.aets); k++ {
					if int64(res.aets[k]) > table.Cycles[pi][k] {
						out.WCETExceedances++
					}
				}
			}
		}
		if injected := ps.inject.Take(); injected > 0 {
			out.FaultsInjected += injected
			rec.faultInjected(injected)
		}
		replanned := est.RecordRun(res.aets)
		if replanned {
			if p2, ok := core.Solve(specMode, params, table, est.PETs()); ok {
				plan = p2
			}
			// DVS software overhead: time and energy (§5.2).
			dvs := power.Activity{
				Cycles:    DVSSoftwareCycles,
				Fetches:   DVSSoftwareCycles,
				ICacheAcc: DVSSoftwareCycles,
				DCacheAcc: DVSSoftwareCycles / 4,
				RegReads:  2 * DVSSoftwareCycles,
				RegWrites: DVSSoftwareCycles,
				FUOps:     DVSSoftwareCycles,
				Bypass:    DVSSoftwareCycles,
			}
			acct.AddSegment(dvs, plan.Spec.Volts)
			usedNs += DVSSoftwareCycles * 1000 / float64(plan.Spec.FMHz)
		}
		// Idle to the deadline at the lowest setting (§5.2).
		idleNs := deadline - usedNs
		if idleNs > 0 {
			idleCycles := int64(idleNs * float64(minPt.FMHz) / 1000)
			acct.AddIdle(idleCycles, minPt.Volts)
		}
		rec.instanceDone(res, usedNs, deadline, replanned)
	}
	rec.finish()
	if hook.hits != nil && ps.memo != nil {
		*hook.hits = ps.memo.hits
	}
	out.Energy = acct.Energy()
	out.AvgPower = acct.AvgPower(float64(n) * deadline)
	out.FinalSpecMHz = plan.Spec.FMHz
	out.FinalRecMHz = plan.Rec.FMHz
	out.Acct = acct
	return out, nil
}

// flushSchedule spreads k flushes evenly over tasks [warmup, n).
func flushSchedule(n, k, warmup int) []bool {
	out := make([]bool, n)
	if k <= 0 {
		return out
	}
	if warmup >= n {
		warmup = 0
	}
	span := n - warmup
	if k > span {
		k = span
	}
	for i := 0; i < k; i++ {
		out[warmup+i*span/k] = true
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

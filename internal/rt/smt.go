package rt

import (
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/ooo"
)

// SMT co-scheduling (paper §1.1 second application, §8 future work): the
// hard real-time task runs as hardware thread 0 of the complex core while a
// non-real-time background thread shares the pipeline as thread 1. The
// hard task only needs the bandwidth of the hypothetical simple pipeline to
// meet its checkpoints; on a 4-wide out-of-order core there is usually
// plenty left over. If contention ever makes a checkpoint slip, the
// missed-checkpoint exception fires, the pipeline drops into simple mode,
// and the background thread is idled — "not context-switched out, but no
// new instructions are fetched" — so the hard deadline is met regardless.

// smtAddrSpace separates the background thread's instruction and data
// addresses from the real-time task's in the shared predictor tables and
// caches (distinct address spaces).
const (
	smtPCOffset   = 1 << 20
	smtAddrOffset = 0x4000_0000
)

// SMTResult summarizes an SMT co-scheduling experiment.
type SMTResult struct {
	Instances          int
	DeadlineViolations int
	MissedTasks        int
	IdledTasks         int // tasks during which the background thread was idled

	// BGInsts counts background instructions completed inside the task
	// periods (both while the hard task runs and in its slack).
	BGInsts int64

	// RTOnlyBGInsts is the baseline: background instructions that fit in
	// the slack alone (no SMT — the conventional-concurrency application),
	// for the same plan and periods.
	RTOnlyBGInsts int64
}

// bgThread wraps a restartable background instruction stream.
type bgThread struct {
	prog *isa.Program
	m    *exec.Machine
}

func newBGThread(prog *isa.Program) *bgThread {
	return &bgThread{prog: prog, m: exec.New(prog)}
}

// step produces the next background instruction, restarting the program
// when it halts (an endless supply of non-real-time work).
//
//visa:hotpath
func (bg *bgThread) step() (exec.DynInst, error) {
	for {
		d, ok, err := bg.m.Step()
		if err != nil {
			return exec.DynInst{}, err
		}
		if ok {
			d.PC += smtPCOffset
			d.NextPC += smtPCOffset
			if d.Addr != 0 && d.Addr < isa.MMIOBase {
				d.Addr += smtAddrOffset
			}
			return d, nil
		}
		bg.m.Reset()
	}
}

// RunSMT executes cfg.Instances periods of the hard real-time task with a
// background thread co-scheduled via SMT, at the fixed VISA-safe plan (the
// SMT application spends slack on throughput rather than on DVS). It also
// computes the conventional-concurrency baseline (background work in the
// slack only).
func RunSMT(s *Setup, cfg Config, bgProg *isa.Program) (*SMTResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deadline := s.Deadline(cfg.Tight)
	params := core.Params{DeadlineNs: deadline, OvhdNs: OvhdNs}
	// SMT spends slack on throughput, not DVS: pin the maximum operating
	// point and protect the hard task with EQ 1 checkpoints.
	plan, ok := core.FixedPlan(params, s.Table, len(s.Table.Points)-1)
	if !ok {
		return nil, errf("rt: %s: no checkpoint head-room for SMT run", s.Bench.Name)
	}
	fs := plan.Spec
	deadlineCycles := int64(deadline * float64(fs.FMHz) / 1000)

	n := cfg.instances()
	res := &SMTResult{Instances: n}

	ps := newProcSim(s.Prog, ProcComplex, fs.FMHz)
	bg := newBGThread(bgProg)
	flushAt := flushSchedule(n, cfg.FlushTasks, 2*ReevalEvery)

	for i := 0; i < n; i++ {
		if flushAt[i] {
			ps.flush()
		}
		ps.machine.Reset()
		ps.cx.Rebase(0)
		ps.bus.SetFreq(fs.FMHz)

		var wd core.Watchdog
		wd.Arm(plan.WatchdogInit)
		idled := false
		missed := false
		var rtDone bool
		var bgRetire int64

		for !rtDone || bgRetire < deadlineCycles {
			// Priority fetch policy: the hard task fetches first; the
			// background thread only fills fetch slots strictly behind it
			// (it can never push the hard task's fetch cursor forward).
			// Once the hard task finishes, the background thread has the
			// machine to itself until the period ends.
			feedBG := !idled &&
				(rtDone || ps.cx.ThreadLastFetch(1) < ps.cx.ThreadLastFetch(0)) &&
				ps.cx.Mode() == ooo.ModeComplex
			if rtDone && (idled || ps.cx.Mode() != ooo.ModeComplex) {
				break
			}
			if feedBG {
				d, err := bg.step()
				if err != nil {
					return nil, err
				}
				bgRetire, err = ps.cx.FeedThread(1, &d)
				if err != nil {
					return nil, err
				}
				if bgRetire <= deadlineCycles {
					res.BGInsts++
				}
				continue
			}
			if rtDone {
				break
			}
			d, okStep, err := ps.machine.Step()
			if err != nil {
				return nil, err
			}
			if !okStep {
				rtDone = true
				continue
			}
			if d.Inst.Op == isa.MARK {
				if k := int(d.Inst.Imm); k >= 1 && wd.Armed() {
					wd.Add(ps.cx.Now(), plan.WatchdogAdd[k])
				}
			}
			rt, err := ps.cx.FeedThread(0, &d)
			if err != nil {
				return nil, err
			}
			if wd.Expired(rt) {
				// Missed checkpoint: simple mode; background thread idled.
				wd.Disarm()
				ps.cx.SwitchToSimple(rt)
				ps.bus.SetFreq(plan.Rec.FMHz)
				idled = true
				missed = true
			}
		}

		taskCycles := ps.cx.Now()
		if missed {
			if float64(taskCycles)*1000/float64(plan.Rec.FMHz)+OvhdNs > deadline {
				res.DeadlineViolations++
			}
			res.MissedTasks++
			res.IdledTasks++
		} else if float64(taskCycles)*1000/float64(fs.FMHz) > deadline {
			res.DeadlineViolations++
		}
	}

	// Conventional-concurrency baseline: same periods, background work only
	// in the slack after the hard task completes (no SMT).
	base := newProcSim(s.Prog, ProcComplex, fs.FMHz)
	bgBase := newBGThread(bgProg)
	for i := 0; i < n; i++ {
		base.machine.Reset()
		base.cx.Rebase(0)
		if _, err := base.profileNoReset(); err != nil {
			return nil, err
		}
		slackCycles := deadlineCycles - base.cx.Now()
		if slackCycles <= 0 {
			continue
		}
		// Run the background thread alone on the core for the slack.
		base.cx.Rebase(0)
		for {
			d, err := bgBase.step()
			if err != nil {
				return nil, err
			}
			bgCyc, err := base.cx.FeedThread(1, &d)
			if err != nil {
				return nil, err
			}
			if bgCyc > slackCycles {
				break
			}
			res.RTOnlyBGInsts++
		}
	}
	return res, nil
}

// profileNoReset feeds the already-reset machine through the pipeline
// without resetting architectural state (helper for RunSMT's baseline).
//
//visa:hotpath
func (ps *procSim) profileNoReset() (int64, error) {
	for {
		d, ok, err := ps.machine.Step()
		if err != nil {
			return 0, err
		}
		if !ok {
			return ps.cx.Now(), nil
		}
		ps.feed(&d)
	}
}

package rt

import (
	"fmt"

	"visa/internal/core"
	"visa/internal/obs"
)

// Trace lanes (thread ids) within one processor's timeline process.
const (
	tidTask = 1 // task-instance slices
	tidSub  = 2 // per-sub-task slices
	tidMode = 3 // checkpoint / mode-switch / DVS events
)

// runRecorder is the one instrumentation object of a processor run. Every
// protocol happening of RunProcessor and runTask is reported to it once,
// and it fans the happening out to whichever surfaces the run's sink
// attaches:
//
//   - trace events on the experiment's simulated-time axis;
//   - distributional instruments (fixed-boundary histograms), streamed as
//     kind:"hist" records at the end of the run;
//   - coalesced counters (the sink's CoalescingSink, the only counter path).
//
// Trace timestamps mirror runTask's time accounting exactly: cycles before
// the recovery switch are priced at the speculative frequency, the switch
// itself costs OvhdNs (EQ 1-4's ovhd term), and cycles after the resume
// point are priced at the recovery frequency — so they agree with the
// reported task times to the nanosecond.
//
// A nil *runRecorder is the disabled path: every method is a no-op, so
// runTask carries no enabled-guards.
type runRecorder struct {
	tr  *obs.Tracer
	pid int
	mw  *obs.MetricsWriter
	cs  *obs.CoalescingSink

	label, bench, proc string
	fault              string // the run's fault spec, for trace args

	// Coalesced counter keys, built once per run.
	kFault, kInstances, kMissed, kReplanned string

	// margin is the watchdog margin (cycles remaining) observed at every
	// passed checkpoint — the distribution whose left tail predicts
	// recovery switches.
	margin *obs.Histogram
	// drain is the recovery switch's drain window in cycles (EQ 2/4's
	// variable overhead on top of the fixed OvhdNs term).
	drain *obs.Histogram
	// latency is each task instance's engine execution in cycles.
	latency *obs.Histogram
	// slack is the per-instance deadline slack in ns.
	slack *obs.Histogram

	// The current instance's time base (see startInstance).
	idx         int
	baseNs      float64 // release time of this instance (idx * deadline)
	fsMHz       int
	frMHz       int
	switched    bool
	switchAt    int64   // cycle of the miss / frequency-switch point
	switchStart int64   // cycle at which recovery-domain timing resumes
	specNs      float64 // task-relative ns of the switch point
}

// newRunRecorder builds the recorder for one processor run of ps, or
// returns nil when the config's sink attaches no surface. Counter and
// instrument names live under the run's prefix, so one stream can host many
// runs; instrument boundaries are fixed powers of two (deterministic, never
// rebalanced): cycle quantities span 1..2^26, slack spans 1..2^27 ns.
func newRunRecorder(cfg Config, bench string, ps *procSim) *runRecorder {
	sink := cfg.Obs
	if sink.T() == nil && sink.M() == nil {
		return nil
	}
	proc := ps.kind.String()
	prefix := cfg.obsPrefix(bench, proc)
	r := &runRecorder{
		tr:         sink.T(),
		pid:        obsLane(sink.T(), cfg.Label, bench, proc),
		mw:         sink.M(),
		cs:         sink.C(),
		label:      cfg.Label,
		bench:      bench,
		proc:       proc,
		kFault:     prefix + ".fault.injected",
		kInstances: prefix + ".instances",
		kMissed:    prefix + ".missed",
		kReplanned: prefix + ".replanned",
		margin:     obs.MustHistogram(prefix+".hist.watchdog_margin_cycles", obs.Exp2Boundaries(0, 26)),
		drain:      obs.MustHistogram(prefix+".hist.switch_drain_cycles", obs.Exp2Boundaries(0, 16)),
		latency:    obs.MustHistogram(prefix+".hist.instance_cycles", obs.Exp2Boundaries(4, 26)),
		slack:      obs.MustHistogram(prefix+".hist.deadline_slack_ns", obs.Exp2Boundaries(0, 27)),
	}
	if cfg.Fault != nil {
		r.fault = cfg.Fault.String()
	}
	return r
}

// hists lists the instruments' histograms in a fixed export order.
func (r *runRecorder) hists() []*obs.Histogram {
	return []*obs.Histogram{r.margin, r.drain, r.latency, r.slack}
}

// obsLane returns the tracer process id for one processor's timeline and
// declares its lanes. The lane name carries the experiment label so that
// multi-experiment traces stay separated.
func obsLane(tr *obs.Tracer, label, bench, proc string) int {
	name := bench + "/" + proc
	if label != "" {
		name = label + " " + name
	}
	pid := tr.Pid(name)
	tr.ThreadName(pid, tidTask, "task instances")
	tr.ThreadName(pid, tidSub, "sub-tasks")
	tr.ThreadName(pid, tidMode, "visa events")
	return pid
}

// startInstance resets the time base for instance idx, released at baseNs
// under plan.
func (r *runRecorder) startInstance(idx int, baseNs float64, plan *core.Plan) {
	if r == nil {
		return
	}
	r.idx, r.baseNs = idx, baseNs
	r.fsMHz, r.frMHz = plan.Spec.FMHz, plan.Rec.FMHz
	r.switched, r.switchAt, r.switchStart, r.specNs = false, 0, 0, 0
}

// nsAt maps a task-relative cycle to absolute experiment nanoseconds.
func (r *runRecorder) nsAt(c int64) float64 {
	if !r.switched || c <= r.switchAt {
		return r.baseNs + float64(c)*1000/float64(r.fsMHz)
	}
	if c < r.switchStart {
		c = r.switchStart // the drain window collapses onto the ovhd span
	}
	return r.baseNs + r.specNs + OvhdNs + float64(c-r.switchStart)*1000/float64(r.frMHz)
}

// flush records the Figure 4 cache+predictor flush at the instance start.
func (r *runRecorder) flush() {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.Instant(r.pid, tidMode, "visa", "cache+predictor flush", r.baseNs,
		obs.A("instance", r.idx))
}

// subTask records sub-task k's execution slice and its reconstructed AET.
func (r *runRecorder) subTask(k int, startCyc, endCyc int64, aetCycles float64) {
	if r == nil || r.tr == nil {
		return
	}
	st, en := r.nsAt(startCyc), r.nsAt(endCyc)
	r.tr.Complete(r.pid, tidSub, "subtask", fmt.Sprintf("sub-task %d", k), st, en-st,
		obs.A("instance", r.idx), obs.A("sub_task", k),
		obs.A("aet_cycles_1ghz", aetCycles))
}

// checkpoint records a passed checkpoint at a sub-task boundary: the
// watchdog had marginCycles left and gains budgetAdd for the next sub-task.
func (r *runRecorder) checkpoint(k int, nowCyc, marginCycles, budgetAdd int64) {
	if r == nil {
		return
	}
	r.margin.ObserveInt(marginCycles)
	if r.tr == nil {
		return
	}
	ns := r.nsAt(nowCyc)
	r.tr.Instant(r.pid, tidMode, "visa", fmt.Sprintf("checkpoint %d pass", k), ns,
		obs.A("instance", r.idx), obs.A("sub_task", k),
		obs.A("margin_cycles", marginCycles), obs.A("budget_add_cycles", budgetAdd))
	r.tr.Counter(r.pid, "watchdog margin", ns, obs.A("cycles", marginCycles))
}

// petMispredict records the watchdog expiry on the explicitly-safe core:
// the sub-task finishes at f_spec and the frequency switch is deferred to
// the next boundary (EQ 2, conventional recovery).
func (r *runRecorder) petMispredict(k int, nowCyc int64) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.Instant(r.pid, tidMode, "visa", "watchdog.fired", r.nsAt(nowCyc),
		obs.A("instance", r.idx), obs.A("sub_task", k), obs.A("recovery", "EQ2"))
	r.tr.Instant(r.pid, tidMode, "visa", "pet-mispredict", r.nsAt(nowCyc),
		obs.A("instance", r.idx), obs.A("sub_task", k))
	r.tr.Counter(r.pid, "watchdog margin", r.nsAt(nowCyc), obs.A("cycles", 0))
}

// checkpointMiss records the recovery switch and its drain window
// [atCyc, resumeCyc]: on the complex core a missed checkpoint with a drain
// into simple mode (EQ 4), on simple-fixed the deferred frequency switch
// (EQ 2, no drain window). The OvhdNs span is the equations' fixed
// overhead term, attributed explicitly.
func (r *runRecorder) checkpointMiss(k int, atCyc, resumeCyc int64, simpleMode bool) {
	if r == nil {
		return
	}
	r.drain.ObserveInt(resumeCyc - atCyc)
	missNs := r.nsAt(atCyc)
	r.specNs = missNs - r.baseNs
	r.switched, r.switchAt, r.switchStart = true, atCyc, resumeCyc
	if r.tr == nil {
		return
	}
	name, eq := "freq-switch", "EQ2"
	if simpleMode {
		name, eq = "mode-switch (simple)", "EQ4"
		r.tr.Instant(r.pid, tidMode, "visa", "checkpoint miss", missNs,
			obs.A("instance", r.idx), obs.A("sub_task", k))
	}
	r.tr.Complete(r.pid, tidMode, "visa", name, missNs, OvhdNs,
		obs.A("instance", r.idx), obs.A("sub_task", k), obs.A("recovery", eq),
		obs.A("ovhd_ns", OvhdNs), obs.A("drain_cycles", resumeCyc-atCyc),
		obs.A("from_mhz", r.fsMHz), obs.A("to_mhz", r.frMHz))
}

// forcedSimple records the degenerate-plan case: the first checkpoint is
// already unreachable, so the whole task runs in simple mode at the
// recovery point (the VISA-safe configuration).
func (r *runRecorder) forcedSimple() {
	if r == nil {
		return
	}
	r.switched, r.switchAt, r.switchStart, r.specNs = true, 0, 0, 0
	if r.tr == nil {
		return
	}
	r.tr.Complete(r.pid, tidMode, "visa", "mode-switch (simple)", r.baseNs, OvhdNs,
		obs.A("instance", r.idx), obs.A("recovery", "EQ4"), obs.A("degenerate", true),
		obs.A("ovhd_ns", OvhdNs), obs.A("from_mhz", r.fsMHz), obs.A("to_mhz", r.frMHz))
}

// recovery records the post-switch execution span (simple mode or the
// recovery frequency) once the task's end cycle is known.
func (r *runRecorder) recovery(endCyc int64, simpleMode bool) {
	if r == nil || r.tr == nil || !r.switched {
		return
	}
	st, en := r.nsAt(r.switchStart), r.nsAt(endCyc)
	name := "recovery (f_rec)"
	if simpleMode {
		name = "recovery (simple mode)"
	}
	if en > st {
		r.tr.Complete(r.pid, tidMode, "visa", name, st, en-st,
			obs.A("instance", r.idx), obs.A("rec_mhz", r.frMHz))
	}
}

// faultInjected records count faults injected during the instance, which
// ended at atNs.
func (r *runRecorder) faultInjected(atNs float64, count int64) {
	if r == nil {
		return
	}
	if r.tr != nil {
		r.tr.Instant(r.pid, tidMode, "fault", "fault.injected", atNs,
			obs.A("instance", r.idx), obs.A("count", count), obs.A("spec", r.fault))
	}
	r.cs.Add(r.kFault, count)
}

// replanned records a PET re-evaluation at atNs that produced plan.
func (r *runRecorder) replanned(atNs float64, plan *core.Plan) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.Instant(r.pid, tidMode, "visa", "pet-reevaluation", atNs,
		obs.A("instance", r.idx),
		obs.A("spec_mhz", plan.Spec.FMHz), obs.A("rec_mhz", plan.Rec.FMHz))
}

// instanceDone records the whole task-instance slice with its outcome, its
// engine latency and deadline slack, and the instance's counters.
func (r *runRecorder) instanceDone(res taskResult, usedNs, deadlineNs float64, replanned bool) {
	if r == nil {
		return
	}
	slackNs := deadlineNs - usedNs
	if r.tr != nil {
		r.tr.Complete(r.pid, tidTask, "task", "task instance", r.baseNs, res.timeNs,
			obs.A("instance", r.idx), obs.A("missed", res.missed),
			obs.A("time_ns", res.timeNs), obs.A("used_ns", usedNs),
			obs.A("slack_ns", slackNs))
		r.tr.Counter(r.pid, "deadline slack (ns)", r.baseNs+usedNs, obs.A("ns", slackNs))
	}
	r.latency.ObserveInt(res.endCycles)
	r.slack.Observe(slackNs)
	r.cs.Add(r.kInstances, 1)
	if res.missed {
		r.cs.Add(r.kMissed, 1)
	}
	if replanned {
		r.cs.Add(r.kReplanned, 1)
	}
}

// finish streams the instruments through the metrics path as one
// kind:"hist" record each, tagged with the run's identity. Per-job record
// buffers make this deterministic for any worker count.
func (r *runRecorder) finish() {
	if r == nil || r.mw == nil {
		return
	}
	for _, h := range r.hists() {
		r.mw.Write(h.Record(
			obs.F("kind", "hist"),
			obs.F("label", r.label),
			obs.F("bench", r.bench),
			obs.F("proc", r.proc),
		))
	}
}

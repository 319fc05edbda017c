package rt

import (
	"visa/internal/obs"
)

// runRecorder is the one instrumentation object of a processor run. Every
// protocol happening of RunProcessor and runTask that the metrics stream
// reads is reported to it once, and it feeds two surfaces of the run's
// sink:
//
//   - distributional instruments (fixed-boundary histograms), streamed as
//     kind:"hist" records at the end of the run;
//   - coalesced counters (the sink's CoalescingSink, the only counter path).
//
// A nil *runRecorder is the disabled path: every method is a no-op, so
// runTask carries no enabled-guards.
type runRecorder struct {
	mw *obs.MetricsWriter
	cs *obs.CoalescingSink

	label, bench, proc string

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
}

// newRunRecorder builds the recorder for one processor run of ps, or
// returns nil when the config's sink carries no metrics stream. Counter and
// instrument names live under the run's prefix, so one stream can host many
// runs; instrument boundaries are fixed powers of two (deterministic, never
// rebalanced): cycle quantities span 1..2^26, slack spans 1..2^27 ns.
func newRunRecorder(cfg Config, bench string, ps *procSim) *runRecorder {
	sink := cfg.Obs
	if sink.M() == nil {
		return nil
	}
	proc := ps.kind.String()
	prefix := cfg.obsPrefix(bench, proc)
	return &runRecorder{
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
}

// checkpoint records a passed checkpoint at a sub-task boundary: the
// watchdog had marginCycles left.
func (r *runRecorder) checkpoint(marginCycles int64) {
	if r == nil {
		return
	}
	r.margin.ObserveInt(marginCycles)
}

// checkpointMiss records the recovery switch's drain window
// [atCyc, resumeCyc]: on the complex core a missed checkpoint with a drain
// into simple mode (EQ 4), on simple-fixed the deferred frequency switch
// (EQ 2, no drain window).
func (r *runRecorder) checkpointMiss(atCyc, resumeCyc int64) {
	if r == nil {
		return
	}
	r.drain.ObserveInt(resumeCyc - atCyc)
}

// faultInjected records count faults injected during one instance.
func (r *runRecorder) faultInjected(count int64) {
	if r == nil {
		return
	}
	r.cs.Add(r.kFault, count)
}

// instanceDone records one task instance's engine latency and deadline
// slack, and the instance's counters.
func (r *runRecorder) instanceDone(res taskResult, usedNs, deadlineNs float64, replanned bool) {
	if r == nil {
		return
	}
	r.latency.ObserveInt(res.endCycles)
	r.slack.Observe(deadlineNs - usedNs)
	r.cs.Add(r.kInstances, 1)
	if res.missed {
		r.cs.Add(r.kMissed, 1)
	}
	if replanned {
		r.cs.Add(r.kReplanned, 1)
	}
}

// finish streams the instruments through the metrics path as one
// kind:"hist" record each, in a fixed order, tagged with the run's
// identity. Per-job record buffers make this deterministic for any worker
// count.
func (r *runRecorder) finish() {
	if r == nil {
		return
	}
	for _, h := range []*obs.Histogram{r.margin, r.drain, r.latency, r.slack} {
		r.mw.Write(h.Record(
			obs.F("kind", "hist"),
			obs.F("label", r.label),
			obs.F("bench", r.bench),
			obs.F("proc", r.proc),
		))
	}
}

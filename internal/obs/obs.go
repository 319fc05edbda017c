// Package obs is the unified instrumentation layer: a hierarchical
// counter registry, a JSONL metrics writer with the coalescing counter sink
// and fixed-boundary histograms that feed it, and a structured event tracer
// with a Chrome trace-event (catapult) exporter. The VISA run-time harness
// reports through the metrics stream (obs.Sink); `visasim -trace` and the
// repo benchmark's span file are the tracer's callers.
//
// Two properties govern the design:
//
//   - Disabled means free. Every entry point is a no-op on a nil receiver,
//     so instrumented code holds plain (possibly nil) pointers and never
//     guards call sites; the simulators' hot loops carry no tracing code at
//     all — counters are sampled lazily from state the simulators already
//     keep (see RegisterObs on the instrumented types). The rt package's
//     AllocsPerRun tests and the hotalloc analyzer keep the disabled path
//     allocation-free.
//
//   - Deterministic output. Simulator timestamps come from simulated time
//     only (never the wall clock), snapshot order is sorted, and the
//     exporters emit byte-identical streams for identical runs — the
//     simulator's reproducibility guarantee extends to its telemetry.
package obs

import "sort"

// Sample is one counter value from a registry snapshot.
type Sample struct {
	Name  string
	Value int64
}

type regEntry struct {
	name string
	fn   func() int64
}

// Registry holds named, hierarchical (dot-separated) counters.
// Registration stores a sampling closure, not a value: reading simulator
// state is deferred to Snapshot, so the hot paths pay nothing. Registering
// an existing name replaces the previous entry, which makes wiring
// idempotent.
type Registry struct {
	entries []regEntry
	byName  map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Counter registers an integer counter sampled by f. No-op on nil.
func (r *Registry) Counter(name string, f func() int64) {
	if r == nil {
		return
	}
	e := regEntry{name: name, fn: f}
	if i, ok := r.byName[name]; ok {
		r.entries[i] = e
		return
	}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Snapshot samples every registered counter, sorted by name
// (deterministic). It returns nil on a nil registry.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, len(r.entries))
	for i, e := range r.entries {
		out[i] = Sample{Name: e.name, Value: e.fn()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Sink is the instrumentation surface a run can attach: a metrics stream
// and the coalescing counter sink in front of it. A nil *Sink (or a nil
// member) disables metrics; the accessors are nil-safe so call sites read
// cfg.Obs.M() without guards.
type Sink struct {
	Metrics *MetricsWriter

	// Counters is the only path counter traffic takes into Metrics (VSA
	// S/Δ discipline): call sites route countable happenings through
	// C().Add and the flush triggers bound durable work by Θ(distinct
	// series), never one durable record per event. A sink with Metrics
	// carries one; rt.Engine builds the pair per job.
	Counters *CoalescingSink
}

// M returns the metrics writer (nil when metrics are off).
func (s *Sink) M() *MetricsWriter {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// C returns the coalescing counter sink (nil when metrics are off).
func (s *Sink) C() *CoalescingSink {
	if s == nil {
		return nil
	}
	return s.Counters
}

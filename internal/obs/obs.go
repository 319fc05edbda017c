// Package obs is the unified instrumentation layer: a hierarchical
// counter registry, a structured event tracer with a Chrome trace-event
// (catapult) exporter, and a JSONL metrics writer. Both pipelines, the
// cache hierarchy, the memory system, and the VISA run-time harness report
// through it.
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
//   - Deterministic output. Timestamps come from simulated time only (never
//     the wall clock), snapshot order is sorted, and the exporters emit
//     byte-identical streams for identical runs — the simulator's
//     reproducibility guarantee extends to its telemetry.
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

// Sink bundles the instrumentation surfaces a run can attach: a tracer
// and a metrics stream. A nil *Sink (or any nil member) disables that
// surface; the accessors are nil-safe so call sites read cfg.Obs.T()
// without guards.
type Sink struct {
	Trace   *Tracer
	Metrics *MetricsWriter

	// Counters is the only path counter traffic takes into Metrics (VSA
	// S/Δ discipline): call sites route countable happenings through
	// C().Add and the flush triggers bound durable work by Θ(distinct
	// series), never one durable record per event. A sink with Metrics
	// carries one; rt.Engine builds the pair per job.
	Counters *CoalescingSink
}

// T returns the tracer (nil when tracing is off).
func (s *Sink) T() *Tracer {
	if s == nil {
		return nil
	}
	return s.Trace
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

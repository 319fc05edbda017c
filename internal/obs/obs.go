// Package obs is the unified instrumentation layer: a hierarchical
// counter/gauge registry, a structured event tracer with a Chrome
// trace-event (catapult) exporter, and machine-readable metrics writers
// (JSONL and CSV). Both pipelines, the cache hierarchy, the memory system,
// the power model, and the VISA run-time harness report through it.
//
// Two properties govern the design:
//
//   - Disabled means free. Every entry point is a no-op on a nil receiver,
//     so instrumented code holds plain (possibly nil) pointers and never
//     guards call sites; the simulators' hot loops carry no tracing code at
//     all — counters are sampled lazily from state the simulators already
//     keep (see RegisterObs on the instrumented types). Benchmarks in the
//     repository root bound the disabled-path overhead at ≤2%.
//
//   - Deterministic output. Timestamps come from simulated time only (never
//     the wall clock), snapshot order is sorted, and the exporters emit
//     byte-identical streams for identical runs — the simulator's
//     reproducibility guarantee extends to its telemetry.
package obs

import "sort"

// Sample is one observed value from a registry snapshot.
type Sample struct {
	Name    string
	Value   float64
	Integer bool // true when the source is an int64 counter
}

// Int returns the sample as an integer (counters only).
func (s Sample) Int() int64 { return int64(s.Value) }

type regEntry struct {
	name    string
	intFn   func() int64
	floatFn func() float64
}

// Registry holds named, hierarchical (dot-separated) counters and gauges.
// Registration stores a sampling closure, not a value: reading simulator
// state is deferred to Snapshot, so the hot paths pay nothing. Registering
// an existing name replaces the previous entry, which makes wiring
// idempotent when the same structures are re-registered across experiment
// runs.
type Registry struct {
	entries []regEntry
	byName  map[string]int

	hists      []*Histogram
	histByName map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}, histByName: map[string]int{}}
}

func (r *Registry) put(e regEntry) {
	if r == nil {
		return
	}
	if i, ok := r.byName[e.name]; ok {
		r.entries[i] = e
		return
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers an integer counter sampled by f. No-op on nil.
func (r *Registry) Counter(name string, f func() int64) {
	r.put(regEntry{name: name, intFn: f})
}

// Gauge registers a float gauge sampled by f. No-op on nil.
func (r *Registry) Gauge(name string, f func() float64) {
	r.put(regEntry{name: name, floatFn: f})
}

// Histogram registers (or, by name, replaces — idempotent wiring) a
// histogram; Snapshot expands it into .count/.sum/.min/.max/.le.<bound>
// samples alongside the scalar series. No-op on nil (either side).
func (r *Registry) Histogram(h *Histogram) {
	if r == nil || h == nil {
		return
	}
	if i, ok := r.histByName[h.name]; ok {
		r.hists[i] = h
		return
	}
	r.histByName[h.name] = len(r.hists)
	r.hists = append(r.hists, h)
}

// Len returns the number of registered series (histograms count once).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries) + len(r.hists)
}

// Snapshot samples every registered series, sorted by name (deterministic).
// It returns nil on a nil registry.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.entries))
	for _, h := range r.hists {
		out = append(out, h.Samples()...)
	}
	for _, e := range r.entries {
		s := Sample{Name: e.name}
		if e.intFn != nil {
			s.Value, s.Integer = float64(e.intFn()), true
		} else {
			s.Value = e.floatFn()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Sink bundles the instrumentation surfaces an experiment can attach.
// A nil *Sink (or any nil member) disables that surface; the accessors are
// nil-safe so call sites read cfg.Obs.T() without guards.
type Sink struct {
	Trace    *Tracer
	Metrics  *MetricsWriter
	Registry *Registry

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

// R returns the registry (nil when counters are off).
func (s *Sink) R() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// C returns the coalescing counter sink (nil when metrics are off).
func (s *Sink) C() *CoalescingSink {
	if s == nil {
		return nil
	}
	return s.Counters
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Arg is one key/value annotation on a trace event. Values must be JSON
// encodable (ints, floats, strings, bools).
type Arg struct {
	Key string
	Val any
}

// A returns an Arg (shorthand for literals at call sites).
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// event is one trace record in the Chrome trace-event model.
type event struct {
	name  string
	cat   string
	ph    byte // X=complete, C=counter, M=metadata
	tsNs  float64
	durNs float64
	pid   int
	tid   int
	args  []Arg
}

// Tracer accumulates structured events on a simulated-time axis and exports
// them as Chrome trace-event (catapult) JSON, loadable in Perfetto or
// chrome://tracing. Every method is a no-op on a nil receiver, so tracing
// code can be left in place unconditionally. Timestamps are nanoseconds of
// simulated time; the exporter converts to the format's microseconds.
type Tracer struct {
	events  []event
	pids    map[string]int
	threads map[[2]int]bool
	nextPid int
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{pids: map[string]int{}, threads: map[[2]int]bool{}, nextPid: 1}
}

// Len returns the number of recorded events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Pid returns a stable process id for the named timeline lane, registering
// a process_name metadata record on first use. Returns 0 on nil.
func (t *Tracer) Pid(name string) int {
	if t == nil {
		return 0
	}
	if pid, ok := t.pids[name]; ok {
		return pid
	}
	pid := t.nextPid
	t.nextPid++
	t.pids[name] = pid
	t.events = append(t.events, event{
		name: "process_name", ph: 'M', pid: pid,
		args: []Arg{{Key: "name", Val: name}},
	})
	return pid
}

// ThreadName labels thread tid of process pid in the timeline UI. Repeat
// registrations of the same (pid, tid) are dropped, so lanes can be
// (re-)declared wherever they are used.
func (t *Tracer) ThreadName(pid, tid int, name string) {
	if t == nil || t.threads[[2]int{pid, tid}] {
		return
	}
	t.threads[[2]int{pid, tid}] = true
	t.events = append(t.events, event{
		name: "thread_name", ph: 'M', pid: pid, tid: tid,
		args: []Arg{{Key: "name", Val: name}},
	})
}

// Complete records a duration slice [tsNs, tsNs+durNs).
func (t *Tracer) Complete(pid, tid int, cat, name string, tsNs, durNs float64, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		name: name, cat: cat, ph: 'X', tsNs: tsNs, durNs: durNs,
		pid: pid, tid: tid, args: args,
	})
}

// Counter records counter-series values at tsNs; each arg is one series on
// the shared track `name` (rendered as a stacked area in the trace viewer).
func (t *Tracer) Counter(pid int, name string, tsNs float64, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		name: name, ph: 'C', tsNs: tsNs, pid: pid, args: args,
	})
}

// WriteChrome writes the catapult JSON object format:
// {"traceEvents":[...],"displayTimeUnit":"ns"}. Events appear in emission
// order and args with sorted keys, so identical runs produce identical
// bytes.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i := range t.events {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if err := t.events[i].write(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\n\"displayTimeUnit\":\"ns\"}\n")
	return err
}

func (e *event) write(w io.Writer) error {
	// The catapult format wants microseconds; floats keep sub-ns precision.
	m := map[string]any{
		"name": e.name,
		"ph":   string(e.ph),
		"ts":   e.tsNs / 1000,
		"pid":  e.pid,
		"tid":  e.tid,
	}
	if e.cat != "" {
		m["cat"] = e.cat
	}
	if e.ph == 'X' {
		m["dur"] = e.durNs / 1000
	}
	if len(e.args) > 0 {
		args := make(map[string]any, len(e.args))
		for _, a := range e.args {
			args[a.Key] = a.Val
		}
		m["args"] = args
	}
	// encoding/json sorts map keys, making the byte stream deterministic.
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("obs: trace event %q: %w", e.name, err)
	}
	_, err = w.Write(b)
	return err
}

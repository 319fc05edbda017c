package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"visa/internal/obs"
	"visa/internal/rt"
	"visa/internal/wal"
)

// This file is the durability layer of the service: a write-ahead journal
// of job admissions and completions (internal/wal underneath) plus the
// recovery path that rebuilds a Server's job store from it after a crash.
//
// The protocol is write-ahead on both edges of a job's life. An "admit"
// entry — carrying the canonical rt.PlanSpec encoding — is appended (and
// fsynced, per policy) before the job enters the execution queue, so an
// acknowledged submission survives any crash. A "done" entry — terminal
// status, report text, and its rt.ReportHash — is appended before the
// in-memory state flips to done, so any state a client has observed is
// durable. Every journaled transition reaches the job store through one
// reducer, Server.apply, which the live paths call right after their
// append; recovery replays the journal in order through the same
// reducer (re-verifying report hashes), then re-materializes and
// re-enqueues the jobs it left unfinished in their original admission
// order. Re-running an incomplete job is safe because the engine is
// deterministic: the re-run's report is byte-identical to what the lost
// run would have produced, making recovery exactly-once-observable even
// though execution is at-least-once.
//
// Coalesced service counters ride the same journal: the CoalescingSink's
// flush records become "counter" entries, and recovery seeds a fresh sink
// from them (obs.RestoreBaselines → SeedBaseline). The job counters
// (submitted/completed/failed) come out of the replay exactly, because
// the reducer counts them; pure-rate counters (rejections) resume from
// their last flushed baseline and can at most under-count by one flush
// window — the coalescing design's stated crash bound.

// Journal entry types.
const (
	entryAdmit   = "admit"   // job admitted: id, client, canonical plan spec
	entryDone    = "done"    // job reached a terminal state: status, report, hash
	entryReject  = "reject"  // admit cancelled (queue refused after the admit was journaled)
	entryCounter = "counter" // coalesced counter flush: key, delta, cumulative total
)

// ErrJournal roots semantic journal failures: entries that decode but
// cannot be honored (unreadable spec, report hash mismatch, unknown entry
// type). Frame-level damage is wal.ErrCorrupt; both refuse recovery
// entirely rather than silently loading part of a history.
var ErrJournal = errors.New("serve: journal invalid")

// JournalEntry is the journal's record spec: one JSON object per wal
// record, canonical struct-driven field order, no wall-clock fields (the
// journal is a deterministic function of what the service was asked to
// do). Unknown fields are decode errors — the schema is versioned by the
// wal file magic.
type JournalEntry struct {
	Type   string          `json:"type"`
	ID     string          `json:"id,omitempty"`
	Client string          `json:"client,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`

	Status     Status `json:"status,omitempty"`
	ReportHash string `json:"report_hash,omitempty"`
	Report     string `json:"report,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	Error      string `json:"error,omitempty"`

	Key   string `json:"key,omitempty"`
	Delta int64  `json:"delta,omitempty"`
	Total int64  `json:"total,omitempty"`
}

// EncodeJournalEntry renders the entry in its canonical JSON form.
func EncodeJournalEntry(e JournalEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeJournalEntry parses a canonical entry encoding. Unknown fields
// are errors, wrapping ErrJournal.
func DecodeJournalEntry(data []byte) (JournalEntry, error) {
	var e JournalEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return JournalEntry{}, fmt.Errorf("%w: entry: %v", ErrJournal, err)
	}
	return e, nil
}

// Durable-counter flush triggers: small enough that a crash loses at most
// a handful of rejection events, large enough that a rejection storm does
// not turn the journal into a per-event log. Completion records flush all
// dirty counters anyway, so these only bound loss between completions.
const (
	durableCounterThreshold = 8
	durableCounterMaxAge    = 64
)

// journal serializes all durable writes of one Server: job entries and
// coalesced counter flushes share a single append order.
type journal struct {
	mu       sync.Mutex
	w        *wal.Writer
	closed   bool
	counters *obs.CoalescingSink
	cbuf     *obs.MetricsWriter // counter flush records accumulate here, then drain
}

func newJournal(w *wal.Writer) *journal {
	cbuf := obs.NewRecordBuffer()
	return &journal{
		w:    w,
		cbuf: cbuf,
		counters: obs.NewCoalescingSink(cbuf, obs.CoalesceOptions{
			Threshold: durableCounterThreshold,
			MaxAge:    durableCounterMaxAge,
		}),
	}
}

// append journals one entry (and any counter flushes it triggered).
func (jl *journal) append(e JournalEntry) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.appendLocked(e)
}

func (jl *journal) appendLocked(e JournalEntry) error {
	if jl.closed {
		return fmt.Errorf("%w: journal closed", ErrJournal)
	}
	data, err := EncodeJournalEntry(e)
	if err != nil {
		return fmt.Errorf("%w: encode: %v", ErrJournal, err)
	}
	return jl.w.Append(data)
}

// add accumulates a coalesced counter delta and journals whatever the
// sink decided to flush (threshold/age triggers).
func (jl *journal) add(key string, delta int64) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.counters.Add(key, delta)
	return jl.drainCountersLocked()
}

// appendDone journals a completion entry and flushes every dirty counter
// behind it — the completion is a durable write anyway, so the counters'
// crash-loss window resets for free.
func (jl *journal) appendDone(e JournalEntry) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.appendLocked(e); err != nil {
		return err
	}
	jl.counters.FlushAll()
	return jl.drainCountersLocked()
}

// drainCountersLocked converts flushed counter records into journal
// entries. Callers hold jl.mu.
func (jl *journal) drainCountersLocked() error {
	recs := jl.cbuf.Records()
	if len(recs) == 0 {
		return nil
	}
	var firstErr error
	for _, rec := range recs {
		key, _ := rec.Get("key").(string)
		delta, _ := rec.Get("delta").(int64)
		total, _ := rec.Get("total").(int64)
		err := jl.appendLocked(JournalEntry{Type: entryCounter, Key: key, Delta: delta, Total: total})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	jl.cbuf.Reset()
	return firstErr
}

// close flushes remaining counter deltas and closes the wal file. Further
// appends fail; it is safe to call more than once.
func (jl *journal) close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	jl.counters.FlushAll()
	err := jl.drainCountersLocked()
	jl.closed = true
	if cerr := jl.w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Recovery summarizes what Open rebuilt from a journal.
type Recovery struct {
	// Done is the number of jobs rehydrated in a terminal state (report
	// verified against its journaled hash).
	Done int
	// Requeued is the number of incomplete jobs re-admitted for
	// execution, in their original admission order; RequeuedIDs lists
	// them.
	Requeued    int
	RequeuedIDs []string
	// Rejected counts admits cancelled by a reject marker (the client was
	// answered 429 — nothing to re-run).
	Rejected int
	// Counters is the number of counter series whose baselines were
	// restored via obs.RestoreBaselines/SeedBaseline.
	Counters int
	// Torn reports that a torn tail (a record cut mid-write by the crash)
	// was truncated away — the expected crash shape, not an error.
	Torn bool
}

// String renders the one-line boot summary daemons log.
func (r *Recovery) String() string {
	tail := ""
	if r.Torn {
		tail = ", torn tail truncated"
	}
	return fmt.Sprintf("%d done, %d re-queued, %d rejected, %d counter baselines%s",
		r.Done, r.Requeued, r.Rejected, r.Counters, tail)
}

// recover opens the configured journal and replays it, in order, through
// the live job-state machine (apply), seeds the counter baselines, and
// starts the worker pool with the jobs the journal left unfinished
// re-enqueued in admission order. A reject or done that names no admitted
// job has nothing to act on and is skipped. Any record that cannot be
// honored fails recovery with a typed error (wal.ErrCorrupt or
// ErrJournal) — never a partial silent load.
func (s *Server) recover() (_ *Recovery, err error) {
	w, raw, torn, err := wal.Open(s.cfg.JournalPath, s.cfg.JournalSync)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.Close() //visa:allow(errlint): the replay error is the one being reported
		}
	}()
	s.jl = newJournal(w)
	rec := &Recovery{Torn: torn}
	var (
		admitted []*jobState // admission order
		flushes  []obs.Record
	)
	for i, data := range raw {
		e, err := DecodeJournalEntry(data)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		switch e.Type {
		case entryAdmit:
			if s.jobs[e.ID] != nil {
				return nil, fmt.Errorf("%w: job %s admitted twice", ErrJournal, e.ID)
			}
			spec, err := rt.DecodePlanSpec(e.Spec)
			if err != nil {
				return nil, fmt.Errorf("%w: job %s: admitted spec unreadable: %v", ErrJournal, e.ID, err)
			}
			var n int
			if _, err := fmt.Sscanf(e.ID, "j%06d", &n); err == nil && n > s.nextID {
				s.nextID = n
			}
			j := newJobState(e.ID, e.Client, spec, nil)
			j.recovered = true
			admitted = append(admitted, j)
			s.apply(j, e)
		case entryDone, entryReject:
			j := s.jobs[e.ID]
			if j == nil {
				continue
			}
			if e.Type == entryReject {
				rec.Rejected++
			} else if !e.Status.terminal() {
				return nil, fmt.Errorf("%w: job %s: done record with status %q", ErrJournal, e.ID, e.Status)
			} else if e.Status == StatusDone && rt.ReportHash(e.Report) != e.ReportHash {
				return nil, fmt.Errorf("%w: job %s: journaled report does not match its hash %s",
					ErrJournal, e.ID, e.ReportHash)
			}
			s.apply(j, e)
		case entryCounter:
			flushes = append(flushes, obs.Record{
				obs.F("kind", "counter.flush"), obs.F("key", e.Key),
				obs.F("delta", e.Delta), obs.F("total", e.Total),
			})
		default:
			return nil, fmt.Errorf("%w: record %d: unknown entry type %q", ErrJournal, i, e.Type)
		}
	}

	// A journaled flush total is a floor under the replayed count: the job
	// counters are exact from the replay (their flushes lag it), and the
	// rejection counters exist only as flushes.
	base := obs.RestoreBaselines(flushes)
	for _, c := range s.durable {
		total := max(c.n.Load(), base[c.key])
		if total == 0 {
			continue
		}
		c.n.Store(total)
		s.jl.counters.SeedBaseline(c.key, total) // no durable write
		rec.Counters++
	}

	// Unfinished jobs re-run. The determinism contract makes the re-run
	// byte-identical to the lost one.
	var requeue []*jobState
	for _, j := range admitted {
		switch {
		case s.jobs[j.id] != j: // cancelled by a reject
		case j.status.terminal():
			rec.Done++
		default:
			plan, err := materialize(j.spec)
			if err != nil {
				return nil, fmt.Errorf("%w: job %s: admitted spec no longer materializes: %v", ErrJournal, j.id, err)
			}
			j.plan, j.status, j.admitted = plan, StatusRecovered, s.now()
			requeue = append(requeue, j)
		}
	}

	// The queue must hold every recovered job: widen it if the backlog at
	// crash time exceeded the configured depth.
	s.pool = NewPool(s.cfg.PoolWorkers, max(s.cfg.QueueDepth, len(requeue)), s.runJob)
	for _, j := range requeue {
		if err := s.pool.Enqueue(j); err != nil {
			return nil, fmt.Errorf("serve: recovery enqueue %s: %w", j.id, err)
		}
		rec.RequeuedIDs = append(rec.RequeuedIDs, j.id)
	}
	rec.Requeued = len(requeue)
	s.recoveredJobs.Store(int64(rec.Done + rec.Requeued))
	return rec, nil
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"visa/internal/rt"
	"visa/internal/wal"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "serve.wal")
}

// runPlanInMemory runs the spec on a plain in-memory server and returns
// the report — the reference for recovery comparisons.
func runPlanInMemory(t *testing.T, spec rt.PlanSpec) string {
	t.Helper()
	s := New(Config{PoolWorkers: 1, EngineWorkers: 1})
	id, err := s.Submit("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	j := s.job(id)
	waitDone(t, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		t.Fatalf("reference run failed: %s", j.errMsg)
	}
	return j.report
}

// writeJournal builds a journal file from raw entries — the crash-state
// constructor for recovery tests.
func writeJournal(t *testing.T, path string, entries ...JournalEntry) {
	t.Helper()
	w, _, _, err := wal.Open(path, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := EncodeJournalEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustEncode(t *testing.T, spec rt.PlanSpec) []byte {
	t.Helper()
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRecoveryRequeuesIncomplete is the core crash shape: an admit record
// with no completion. Recovery re-materializes the spec, re-runs it, and
// the re-run's report is byte-identical to an uninterrupted run — the
// exactly-once-observable argument in miniature.
func TestRecoveryRequeuesIncomplete(t *testing.T) {
	path := journalPath(t)
	spec := tinyPlan()
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000007", Client: "alice", Spec: mustEncode(t, spec)})

	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 1 || rec.Done != 0 || len(rec.RequeuedIDs) != 1 || rec.RequeuedIDs[0] != "j000007" {
		t.Fatalf("recovery = %+v", rec)
	}
	j := s.job("j000007")
	if j == nil {
		t.Fatal("recovered job not in store")
	}
	waitDone(t, j)
	j.mu.Lock()
	report, status, recovered := j.report, j.status, j.recovered
	j.mu.Unlock()
	if status != StatusDone || !recovered {
		t.Fatalf("recovered job: status=%s recovered=%v", status, recovered)
	}
	if want := runPlanInMemory(t, spec); report != want {
		t.Errorf("re-run report differs from uninterrupted run:\n--- rerun\n%s\n--- ref\n%s", report, want)
	}
	// IDs continue after the journaled ones.
	id2, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "j000008" {
		t.Errorf("post-recovery id = %s, want j000008", id2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// A second recovery on the same journal sees both completions.
	s2, rec2, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Done != 2 || rec2.Requeued != 0 {
		t.Fatalf("second recovery = %+v, want 2 done", rec2)
	}
	if got := s2.job("j000007"); got == nil || got.status != StatusDone || got.report != report {
		t.Error("rehydrated job lost its report")
	}
}

// TestRecoveryRehydratesDone: a completed, journaled job comes back done
// — same report, verified hash, terminal event stream — without re-running.
func TestRecoveryRehydratesDone(t *testing.T) {
	path := journalPath(t)
	spec := tinyPlan()

	s1, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	j1 := s1.job(id)
	waitDone(t, j1)
	j1.mu.Lock()
	report, hash := j1.report, j1.reportHash
	j1.mu.Unlock()
	if hash != rt.ReportHash(report) {
		t.Fatalf("live job hash mismatch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Done != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	j2 := s2.job(id)
	if j2 == nil {
		t.Fatal("done job not rehydrated")
	}
	j2.mu.Lock()
	defer j2.mu.Unlock()
	if j2.status != StatusDone || j2.report != report || j2.reportHash != hash || !j2.recovered {
		t.Fatalf("rehydrated: status=%s recovered=%v reportMatch=%v",
			j2.status, j2.recovered, j2.report == report)
	}
	if len(j2.events) != 2 || j2.events[0].Type != "report" || j2.events[1].Type != "done" {
		t.Errorf("synthesized events = %+v", j2.events)
	}
}

// TestRecoverySkipsRejected: an admit cancelled by a reject marker (queue
// refused after the write-ahead admit) is not resurrected.
func TestRecoverySkipsRejected(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryReject, ID: "j000001"})
	s, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rejected != 1 || rec.Requeued != 0 || rec.Done != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if s.job("j000001") != nil {
		t.Error("rejected job resurrected")
	}
}

// TestRecoveryRejectsBadReportHash: a done record whose report does not
// match its journaled hash is corruption — recovery must refuse with a
// typed error, never silently serve a wrong report.
func TestRecoveryRejectsBadReportHash(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "tampered report", ReportHash: rt.ReportHash("the real report")})
	_, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
}

// TestRecoveryRejectsCorruptFrame: a checksum-corrupt journal refuses
// recovery entirely with wal's typed error.
func TestRecoveryRejectsCorruptFrame(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // flip a payload bit inside the complete record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want wal.ErrCorrupt", err)
	}
}

// TestRecoveryTornTail: a crash mid-append tears the final record; the
// valid prefix recovers and the incomplete job re-runs.
func TestRecoveryTornTail(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "r", ReportHash: rt.ReportHash("r")})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the done record: cut 3 bytes into its frame from the end.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if !rec.Torn || rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want torn + 1 requeued", rec)
	}
	j := s.job("j000001")
	waitDone(t, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		t.Errorf("torn-tail job did not re-run to done: %s (%s)", j.status, j.errMsg)
	}
}

// TestRecoveryQueueWiderThanConfig: more incomplete jobs than QueueDepth
// must all re-enqueue — recovery widens the queue instead of dropping
// admitted work.
func TestRecoveryQueueWiderThanConfig(t *testing.T) {
	path := journalPath(t)
	var entries []JournalEntry
	for i := 1; i <= 5; i++ {
		entries = append(entries, JournalEntry{
			Type: entryAdmit, ID: fmt.Sprintf("j%06d", i), Client: "c",
			Spec: mustEncode(t, tinyPlan()),
		})
	}
	writeJournal(t, path, entries...)
	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, QueueDepth: 1,
		JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 5 {
		t.Fatalf("requeued %d, want 5", rec.Requeued)
	}
	for i := 1; i <= 5; i++ {
		j := s.job(fmt.Sprintf("j%06d", i))
		waitDone(t, j)
		j.mu.Lock()
		if j.status != StatusDone {
			t.Errorf("job %d: %s (%s)", i, j.status, j.errMsg)
		}
		j.mu.Unlock()
	}
}

// TestCountersSurviveRestart: the durable coalesced counters resume after
// recovery — exact for the job counters (derived from the replay), and
// at-least-last-flush for rejection counters (seeded via
// obs.RestoreBaselines/SeedBaseline from journaled counter entries).
func TestCountersSurviveRestart(t *testing.T) {
	path := journalPath(t)
	s1, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", tinyPlan())
	if err != nil {
		t.Fatal(err)
	}
	// Invalid specs bump the rejected_spec counter (pure-rate: no per-event
	// journal record, only coalesced flushes).
	for i := 0; i < 3; i++ {
		if _, err := s1.Submit("alice", rt.PlanSpec{Version: 99}); !errors.Is(err, rt.ErrInvalidSpec) {
			t.Fatalf("bad spec err = %v", err)
		}
	}
	waitDone(t, s1.job(id))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil { // close flushes every dirty counter
		t.Fatal(err)
	}

	s2, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counters == 0 {
		t.Fatalf("no counter baselines restored: %+v", rec)
	}
	if got := s2.submitted.Load(); got != 1 {
		t.Errorf("submitted = %d, want 1", got)
	}
	if got := s2.completed.Load(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := s2.rejectedSpec.Load(); got != 3 {
		t.Errorf("rejected_spec = %d, want 3", got)
	}
	// And the durable sink is seeded, so future flush totals continue
	// cumulatively rather than restarting from zero.
	if got := s2.jl.counters.Baseline(keyRejectedSpec); got != 3 {
		t.Errorf("seeded baseline = %d, want 3", got)
	}
}

// TestRecoverySubmittedExcludesRejected: an admit cancelled by a reject
// record was never a submission — the client got a 429 and the live server
// never counted it — so a restart must not count it either.
func TestRecoverySubmittedExcludesRejected(t *testing.T) {
	path := journalPath(t)
	spec := mustEncode(t, tinyPlan())
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: spec},
		JournalEntry{Type: entryAdmit, ID: "j000002", Client: "c", Spec: spec},
		JournalEntry{Type: entryReject, ID: "j000002"},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "r", ReportHash: rt.ReportHash("r")},
		JournalEntry{Type: entryCounter, Key: keySubmitted, Delta: 1, Total: 1},
		JournalEntry{Type: entryCounter, Key: keyRejectedQueue, Delta: 1, Total: 1},
		JournalEntry{Type: entryCounter, Key: keyCompleted, Delta: 1, Total: 1})
	s, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.submitted.Load(); got != 1 {
		t.Errorf("submitted = %d, want 1", got)
	}
	if got := s.rejectedQueue.Load(); got != 1 {
		t.Errorf("rejected_queue = %d, want 1", got)
	}
	if got := s.completed.Load(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestJournalEntryRoundTrip pins decode(encode(x)) == x at the entry
// level (the frame level is fuzz-pinned in internal/wal).
func TestJournalEntryRoundTrip(t *testing.T) {
	in := JournalEntry{Type: entryDone, ID: "j000042", Status: StatusDone,
		Report: "REPORT\ntext\n", ReportHash: rt.ReportHash("REPORT\ntext\n"), Failed: 2}
	data, err := EncodeJournalEntry(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJournalEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Status != in.Status ||
		out.Report != in.Report || out.ReportHash != in.ReportHash || out.Failed != in.Failed {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeJournalEntry([]byte(`{"type":"admit","surprise":1}`)); !errors.Is(err, ErrJournal) {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestQueueTimeout: a job that waited past the admission deadline fails
// with ErrJobTimeout (mapped to 504), and its error message carries only
// the configured bound — no measured wall-time leaks into job state.
func TestQueueTimeout(t *testing.T) {
	s := New(Config{PoolWorkers: 1, EngineWorkers: 1, QueueTimeout: time.Minute})
	base := time.Unix(5000, 0)
	spec := tinyPlan()
	plan, err := materialize(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Expired in queue: fails without running.
	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	j := newJobState("j000001", "alice", spec, plan)
	j.admitted = base
	s.runJob(j)
	j.mu.Lock()
	if j.status != StatusFailed {
		t.Fatalf("expired job status = %s, want failed", j.status)
	}
	const wantMsg = "serve: job timed out awaiting execution (admission deadline 1m0s)"
	if j.errMsg != wantMsg {
		t.Errorf("errMsg = %q, want %q (deterministic, no measured wall-time)", j.errMsg, wantMsg)
	}
	j.mu.Unlock()
	if got := s.failed.Load(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}

	// Within the deadline: runs to done.
	s.now = func() time.Time { return base.Add(30 * time.Second) }
	j2 := newJobState("j000002", "alice", spec, plan)
	j2.admitted = base
	s.runJob(j2)
	j2.mu.Lock()
	if j2.status != StatusDone {
		t.Errorf("in-deadline job status = %s (%s)", j2.status, j2.errMsg)
	}
	j2.mu.Unlock()

	// The sentinel maps to 504 via errors.Is, like the rest of the taxonomy.
	if code, _ := httpStatus(fmt.Errorf("wrapped: %w", ErrJobTimeout)); code != 504 {
		t.Errorf("httpStatus(ErrJobTimeout) = %d, want 504", code)
	}
}

// TestPoolDrainIdempotent: Drain any number of times — sequentially,
// concurrently, racing live Enqueues — without panic or deadlock, and
// every admitted job still runs exactly once.
func TestPoolDrainIdempotent(t *testing.T) {
	ran := make(chan *jobState, 64)
	p := NewPool(2, 8, func(j *jobState) { ran <- j })
	admitted := 0
	for i := 0; i < 4; i++ {
		if err := p.Enqueue(&jobState{}); err != nil {
			t.Fatal(err)
		}
		admitted++
	}

	done := make(chan struct{}, 8)
	for i := 0; i < 4; i++ { // concurrent drains
		go func() { p.Drain(); done <- struct{}{} }()
	}
	for i := 0; i < 4; i++ { // concurrent enqueues racing the drains
		go func() {
			err := p.Enqueue(&jobState{})
			if err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, rt.ErrQueueFull) {
				t.Errorf("racing enqueue: %v", err)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("drain or enqueue deadlocked")
		}
	}
	// Two more sequential drains after completion: strict no-ops.
	p.Drain()
	p.Drain()
	if err := p.Enqueue(&jobState{}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain enqueue err = %v, want ErrDraining", err)
	}
	if got := len(ran); got < admitted {
		t.Errorf("only %d of %d admitted jobs ran", got, admitted)
	}
}

// TestRecoveryRejectsInconsistentRecords: records the service never
// writes — a second admit for a live id, a done record with a non-terminal
// status — would break the reducer's one-job-per-id and exact-count
// invariants, so recovery refuses them as typed journal corruption.
func TestRecoveryRejectsInconsistentRecords(t *testing.T) {
	admit := JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())}
	for _, second := range []JournalEntry{
		admit, // a duplicate admit
		{Type: entryDone, ID: "j000001", Status: StatusRunning},
	} {
		t.Run(second.Type, func(t *testing.T) {
			path := journalPath(t)
			writeJournal(t, path, admit, second)
			if _, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever}); !errors.Is(err, ErrJournal) {
				t.Fatalf("err = %v, want ErrJournal", err)
			}
		})
	}
}

// TestRecoveryLastTerminalRecordWins: a job with two terminal records
// replays as one finished job — one report/done pair, one terminal count,
// and the last record's report served.
func TestRecoveryLastTerminalRecordWins(t *testing.T) {
	for _, first := range []JournalEntry{
		{Type: entryDone, ID: "j000001", Status: StatusDone, Report: "first", ReportHash: rt.ReportHash("first")},
		{Type: entryDone, ID: "j000001", Status: StatusFailed, Error: "first"},
	} {
		t.Run(string(first.Status), func(t *testing.T) {
			path := journalPath(t)
			writeJournal(t, path,
				JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
				first,
				JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
					Report: "second", ReportHash: rt.ReportHash("second"), Failed: 1})
			s, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Done != 1 || rec.Requeued != 0 {
				t.Fatalf("recovery = %+v, want 1 done", rec)
			}
			j := s.job("j000001")
			j.mu.Lock()
			defer j.mu.Unlock()
			want := []Event{{Type: "report", Text: "second", Failed: 1}, {Type: "done", Status: StatusDone}}
			if fmt.Sprint(j.events) != fmt.Sprint(want) {
				t.Errorf("events = %+v, want %+v", j.events, want)
			}
			if j.status != StatusDone || j.report != "second" || j.reportHash != rt.ReportHash("second") ||
				j.failed != 1 || j.errMsg != "" {
				t.Errorf("job = status %s report %q failed %d err %q, want the last record's",
					j.status, j.report, j.failed, j.errMsg)
			}
			if c, f := s.completed.Load(), s.failed.Load(); c != 1 || f != 0 {
				t.Errorf("completed, failed = %d, %d; want 1, 0", c, f)
			}
		})
	}
}

// jobSnapshot is the part of a job's state a journal record determines.
type jobSnapshot struct {
	status     Status
	report     string
	reportHash string
	failed     int
	errMsg     string
	terminal   []Event // the trailing report/done events
}

func snapshot(j *jobState) jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 1
	if j.status == StatusDone {
		n = 2
	}
	return jobSnapshot{j.status, j.report, j.reportHash, j.failed, j.errMsg,
		append([]Event(nil), j.events[len(j.events)-n:]...)}
}

// TestCrashPrefixMatchesLive is the crash-prefix property: a journaled
// server is driven through every journaled transition — a completed job, a
// job failed by its admission deadline, a queue-full rejection after its
// admit, and an invalid-spec rejection — and then every record prefix of
// its journal, the state a crash after that record leaves, is recovered.
// Each finished job must match its live state, every other admitted and
// not rejected job must be re-queued in admission order, and the job
// counters must equal what the prefix implies.
func TestCrashPrefixMatchesLive(t *testing.T) {
	path := journalPath(t)
	s, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, QueueDepth: 1,
		QueueTimeout: time.Minute, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64 // seconds of the injected wall clock
	s.now = func() time.Time { return time.Unix(clock.Load(), 0) }
	// Gate the single worker so the queue state is the test's to choose.
	s.pool.Drain()
	started, release := make(chan string), make(chan struct{})
	s.pool = NewPool(1, 1, func(j *jobState) {
		started <- j.id
		<-release
		s.runJob(j)
	})

	spec := tinyPlan()
	ok, err := s.Submit("c", spec) // j000001: runs to done
	if err != nil {
		t.Fatal(err)
	}
	<-started
	late, err := s.Submit("c", spec) // j000002: waits past its deadline
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("c", spec); !errors.Is(err, rt.ErrQueueFull) { // j000003: admit, then reject
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit("c", rt.PlanSpec{Version: 99}); !errors.Is(err, rt.ErrInvalidSpec) {
		t.Fatalf("bad spec err = %v, want ErrInvalidSpec", err)
	}
	release <- struct{}{}
	<-started // the first job has finished; the second is dequeued
	clock.Store(120)
	release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	live := map[string]jobSnapshot{ok: snapshot(s.job(ok)), late: snapshot(s.job(late))}
	if live[ok].status != StatusDone || live[late].status != StatusFailed {
		t.Fatalf("live jobs = %+v, want done and failed", live)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, _, err := wal.Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(raw); k++ {
		// The state the prefix implies.
		var admitted []string
		gone := map[string]bool{}
		finished := map[string]Status{}
		for _, rec := range raw[:k] {
			e, err := DecodeJournalEntry(rec)
			if err != nil {
				t.Fatal(err)
			}
			switch e.Type {
			case entryAdmit:
				admitted = append(admitted, e.ID)
			case entryReject:
				gone[e.ID] = true
			case entryDone:
				finished[e.ID] = e.Status
			}
		}
		var requeued []string
		var completed, failed int64
		for _, id := range admitted {
			switch {
			case gone[id]:
			case finished[id] == StatusDone:
				completed++
			case finished[id] == StatusFailed:
				failed++
			default:
				requeued = append(requeued, id)
			}
		}

		cpath := filepath.Join(t.TempDir(), "prefix.wal")
		w, _, _, err := wal.Open(cpath, wal.SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range raw[:k] {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: cpath, JournalSync: wal.SyncNever})
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		for id := range finished {
			if got := snapshot(r.job(id)); fmt.Sprint(got) != fmt.Sprint(live[id]) {
				t.Errorf("prefix %d: job %s recovered as %+v, live %+v", k, id, got, live[id])
			}
		}
		if fmt.Sprint(rec.RequeuedIDs) != fmt.Sprint(requeued) {
			t.Errorf("prefix %d: re-queued %v, want %v", k, rec.RequeuedIDs, requeued)
		}
		for id := range gone {
			if r.job(id) != nil {
				t.Errorf("prefix %d: rejected job %s recovered", k, id)
			}
		}
		sub := int64(len(admitted) - len(gone))
		if r.submitted.Load() != sub || r.completed.Load() != completed || r.failed.Load() != failed {
			t.Errorf("prefix %d: submitted/completed/failed = %d/%d/%d, want %d/%d/%d", k,
				r.submitted.Load(), r.completed.Load(), r.failed.Load(), sub, completed, failed)
		}
		if err := r.Drain(ctx); err != nil {
			t.Fatalf("prefix %d: drain: %v", k, err)
		}
	}
}

// Package serve is the simulation-as-a-service layer: it wraps rt.Engine
// behind a persistent worker pool and an HTTP/JSON API (cmd/visad), turning
// the in-process Plan/Job API into a long-running daemon that admits
// simulation jobs from many clients.
//
// The unit of submission is a serialized rt.PlanSpec (POST /v1/jobs); the
// unit of delivery is a job resource with a status document (GET
// /v1/jobs/{id}) and an NDJSON event stream (GET /v1/jobs/{id}/stream)
// carrying per-job results and coalesced counter.flush metrics as they
// complete. Admission is controlled twice: per-client token quotas
// (Quotas) and a bounded work queue (Pool) — both reject instantly with
// typed errors the HTTP layer maps to statuses via errors.Is, never by
// string matching.
//
// The engine's determinism guarantee becomes a service-level property:
// however many engine workers a daemon runs (-j), a submitted plan's
// report text and its event stream after plan-order replay (sort events by
// plan index) are byte-identical — asserted end to end by the e2e tests
// and cmd/visaload.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"visa/internal/obs"
	"visa/internal/rt"
	"visa/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// EngineWorkers is the rt.Engine worker count per job (<= 0 selects
	// NumCPU). Any value yields byte-identical responses.
	EngineWorkers int

	// PoolWorkers is the number of plans running concurrently (default 2).
	PoolWorkers int

	// QueueDepth bounds the admitted-but-not-running backlog (default 16).
	QueueDepth int

	// QuotaRate/QuotaBurst set the per-client token bucket (jobs per
	// second / bucket size). Rate 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int

	// CycleBudget is the default per-task-instance simulated-cycle budget
	// applied to every job that does not set its own — the service's
	// timeout in the simulated-time domain (default DefaultCycleBudget;
	// negative disables).
	CycleBudget int64

	// MaxBodyBytes bounds a submission body (default 1 MiB).
	MaxBodyBytes int64

	// JournalPath, when non-empty, makes the server crash-safe: every
	// admission is journaled (write-ahead, internal/wal) before it is
	// queued and every completion before it is observable, so a killed
	// daemon restarted on the same journal rehydrates finished jobs and
	// re-runs incomplete ones. Only Open honors it; New is the in-memory
	// constructor.
	JournalPath string

	// JournalSync selects the fsync policy for journal appends (default
	// wal.SyncAlways: an acknowledged submission survives power loss).
	JournalSync wal.SyncPolicy

	// QueueTimeout, when > 0, is the per-job admission deadline: a job
	// still waiting for a worker after this long fails with ErrJobTimeout
	// instead of running arbitrarily late. The clock is the service's
	// wall clock (injectable in tests); the simulation itself stays in
	// simulated time.
	QueueTimeout time.Duration
}

// DefaultCycleBudget bounds one task instance to a billion simulated
// cycles — far above any real benchmark instance, low enough that a
// runaway plan cannot pin a worker forever.
const DefaultCycleBudget = 1_000_000_000

func (c Config) withDefaults() Config {
	if c.PoolWorkers < 1 {
		c.PoolWorkers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.CycleBudget == 0 {
		c.CycleBudget = DefaultCycleBudget
	}
	if c.CycleBudget < 0 {
		c.CycleBudget = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. StatusRecovered is the post-crash re-admission
// state: the job was journaled but never finished, and a restarted daemon
// has re-queued it — it proceeds to running/done exactly like a queued
// job.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusRecovered Status = "recovered"
)

// ErrJobTimeout reports a job that waited in the admission queue past the
// configured QueueTimeout and was failed without running. Service
// mapping: 504 Gateway Timeout.
var ErrJobTimeout = errors.New("serve: job timed out awaiting execution")

// Event is one NDJSON line of a job's stream. Type "metrics" carries one
// buffered metrics record of plan-job Index (counter.flush records when
// coalescing, which the engine always enables here); "job" marks plan-job
// Index complete; "report" carries the merged plan-order report text;
// "done" closes the stream. Events arrive in completion order — replaying
// them sorted by Index reconstructs the deterministic plan-order stream.
type Event struct {
	Type   string          `json:"type"`
	Index  int             `json:"index,omitempty"`
	OK     bool            `json:"ok,omitempty"`
	Error  string          `json:"error,omitempty"`
	Record json.RawMessage `json:"record,omitempty"`
	Text   string          `json:"text,omitempty"`
	Failed int             `json:"failed,omitempty"`
	Status Status          `json:"status,omitempty"`
}

// jobState is one submitted plan's lifecycle: spec and materialized plan,
// the accumulating event log, and the final report.
type jobState struct {
	id        string
	client    string
	spec      rt.PlanSpec
	plan      *rt.Plan
	admitted  time.Time // when the job entered the queue (admission-deadline clock)
	recovered bool      // rehydrated or re-queued from the journal after a crash

	mu         sync.Mutex
	notify     chan struct{} // closed and replaced on every append/state change
	status     Status
	events     []Event
	report     string
	reportHash string
	failed     int
	errMsg     string
}

func newJobState(id, client string, spec rt.PlanSpec, plan *rt.Plan) *jobState {
	return &jobState{
		id: id, client: client, spec: spec, plan: plan,
		status: StatusQueued, notify: make(chan struct{}),
	}
}

// signal wakes every stream waiting on this job. Callers hold j.mu.
func (j *jobState) signal() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *jobState) setStatus(s Status) {
	j.mu.Lock()
	j.status = s
	j.signal()
	j.mu.Unlock()
}

func (j *jobState) append(evs ...Event) {
	j.mu.Lock()
	j.events = append(j.events, evs...)
	j.signal()
	j.mu.Unlock()
}

// next returns the events after cursor, whether the job reached a terminal
// state, and a channel that closes on the next change — the stream
// handler's long-poll primitive.
func (j *jobState) next(cursor int) (evs []Event, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		evs = j.events[cursor:len(j.events):len(j.events)]
	}
	return evs, j.status.terminal(), j.notify
}

// terminal reports whether a job in this state is finished.
func (st Status) terminal() bool { return st == StatusDone || st == StatusFailed }

// Durable counter keys: the service counters whose values survive a
// restart through the journal (exact for the job counters, last-flush
// baseline for the rejection counters).
const (
	keySubmitted     = "serve.jobs.submitted"
	keyCompleted     = "serve.jobs.completed"
	keyFailed        = "serve.jobs.failed"
	keyRejectedQuota = "serve.jobs.rejected_quota"
	keyRejectedQueue = "serve.jobs.rejected_queue"
	keyRejectedSpec  = "serve.jobs.rejected_spec"
)

// Server owns the job store, the admission layers, the journal, and the
// engine configuration. Build with New (in-memory) or Open (journaled),
// mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg    Config
	pool   *Pool
	quotas *Quotas
	reg    *obs.Registry
	jl     *journal // nil when running without a journal
	now    func() time.Time

	mu     sync.Mutex
	jobs   map[string]*jobState
	nextID int

	draining atomic.Bool
	running  atomic.Int64

	submitted     atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	rejectedSpec  atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	recoveredJobs atomic.Int64
	journalErrs   atomic.Int64

	// durable is the one table of counters whose totals survive a
	// restart: registry wiring, count and recovery's baseline seeding all
	// read it.
	durable []durableCounter
}

// durableCounter pairs a durable counter key with its live total.
type durableCounter struct {
	key string
	n   *atomic.Int64
}

// New builds an in-memory Server and starts its worker pool. The journal
// configuration is ignored — use Open for a crash-safe server.
func New(cfg Config) *Server {
	cfg.JournalPath = ""
	s := newServer(cfg.withDefaults())
	s.pool = NewPool(s.cfg.PoolWorkers, s.cfg.QueueDepth, s.runJob)
	return s
}

// Open builds a Server with its configured journal: existing records are
// replayed through the live job-state machine (finished jobs come back
// done or failed, incomplete ones re-enqueue in admission order, counter
// baselines reseed) before the worker pool starts, and every subsequent
// admission/completion is journaled write-ahead. With no JournalPath it
// is equivalent to New. Recovery refuses corrupt journals with a typed
// error (wal.ErrCorrupt or ErrJournal) rather than loading part of a
// history.
func Open(cfg Config) (*Server, *Recovery, error) {
	cfg = cfg.withDefaults()
	if cfg.JournalPath == "" {
		return New(cfg), &Recovery{}, nil
	}
	s := newServer(cfg)
	rec, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// newServer builds everything but the worker pool (whose queue depth the
// recovery path may widen before starting it).
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		quotas: NewQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:   map[string]*jobState{},
		//visa:allow(detlint): admission deadlines live in wall-clock service time, not simulated time
		now: time.Now,
	}
	s.durable = []durableCounter{
		{keySubmitted, &s.submitted}, {keyCompleted, &s.completed}, {keyFailed, &s.failed},
		{keyRejectedQuota, &s.rejectedQuota}, {keyRejectedQueue, &s.rejectedQueue},
		{keyRejectedSpec, &s.rejectedSpec},
	}
	s.reg = obs.NewRegistry()
	for _, c := range s.durable {
		s.reg.Counter(c.key, c.n.Load)
	}
	s.reg.Counter("serve.jobs.running", s.running.Load)
	s.reg.Counter("serve.jobs.recovered", s.recoveredJobs.Load)
	s.reg.Counter("serve.journal.errors", s.journalErrs.Load)
	s.reg.Counter("serve.queue.depth", func() int64 { return int64(s.pool.Depth()) })
	return s
}

// counter returns the live total of a durable counter key.
func (s *Server) counter(key string) *atomic.Int64 {
	for _, c := range s.durable {
		if c.key == key {
			return c.n
		}
	}
	panic("serve: unknown durable counter " + key)
}

// count bumps a durable counter that no journaled transition carries (the
// rejections): its live total and the journal's coalesced sink.
func (s *Server) count(key string) {
	s.counter(key).Add(1)
	s.journalCount(key)
}

// journalCount records one increment of key in the journal's coalesced
// sink; the live total is bumped by count or apply.
func (s *Server) journalCount(key string) {
	if err := s.jl.add(key, 1); err != nil {
		s.journalErrs.Add(1)
	}
}

// terminalKey is the durable counter a job's terminal status bumps.
func terminalKey(st Status) string {
	if st == StatusDone {
		return keyCompleted
	}
	return keyFailed
}

// apply is the service's one job-state machine: every journaled
// transition reaches the job store here. The live paths call it right
// after their journal append and recovery replays the journal through it,
// so a recovered job is built by the same code as a live one. j is the job
// e names; admit and reject edit the store, so live callers hold s.mu
// (recovery runs before the server is shared).
func (s *Server) apply(j *jobState, e JournalEntry) {
	switch e.Type {
	case entryAdmit:
		s.jobs[e.ID] = j
		s.submitted.Add(1)
	case entryReject:
		delete(s.jobs, e.ID)
		s.submitted.Add(-1)
	case entryDone:
		j.mu.Lock()
		if j.status.terminal() {
			// A second terminal record for the job (only replay meets
			// one): the last writer wins, replacing the earlier record's
			// trailing events and count instead of adding to them.
			drop := 1
			if j.status == StatusDone {
				drop = 2
			}
			j.events = j.events[:len(j.events)-drop]
			s.counter(terminalKey(j.status)).Add(-1)
		}
		j.status, j.errMsg = e.Status, e.Error
		j.report, j.reportHash, j.failed = e.Report, e.ReportHash, e.Failed
		if e.Status == StatusDone {
			j.events = append(j.events, Event{Type: "report", Text: e.Report, Failed: e.Failed})
		}
		j.events = append(j.events, Event{Type: "done", Status: e.Status, Error: e.Error})
		j.signal()
		j.mu.Unlock()
		s.counter(terminalKey(e.Status)).Add(1)
	}
}

// Submit validates, admits, and enqueues one plan spec for client,
// returning the job ID. Errors wrap rt.ErrInvalidSpec (malformed spec),
// ErrQuotaExceeded (client over quota), rt.ErrQueueFull (backlog full), or
// ErrDraining (shutting down).
func (s *Server) Submit(client string, spec rt.PlanSpec) (string, error) {
	if s.draining.Load() {
		return "", ErrDraining
	}
	plan, err := materialize(spec)
	if err != nil {
		s.count(keyRejectedSpec)
		return "", err
	}
	if ok, wait := s.quotas.Allow(client); !ok {
		s.count(keyRejectedQuota)
		return "", &QuotaError{Client: client, RetryAfter: wait}
	}

	// Write-ahead admission: the admit record hits the journal before the
	// job can run, and the enqueue happens under the same lock, so the
	// journal's admit order is exactly the queue's execution order — a
	// restarted daemon re-runs the backlog in the order clients were
	// promised.
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJobState(id, client, spec, plan)
	j.admitted = s.now()
	admit := JournalEntry{Type: entryAdmit, ID: id, Client: client}
	if s.jl != nil {
		enc, err := spec.Encode()
		if err == nil {
			admit.Spec = enc
			err = s.jl.append(admit)
		}
		if err != nil {
			s.mu.Unlock()
			s.journalErrs.Add(1)
			return "", fmt.Errorf("serve: journal admission: %w", err)
		}
	}
	s.apply(j, admit)
	if err := s.pool.Enqueue(j); err != nil {
		s.mu.Unlock()
		// The admit record is already durable; cancel it so recovery does
		// not resurrect a job the client was told to retry. A crash
		// between the two records errs toward re-running work nobody
		// observed — harmless — never toward losing work somebody did.
		// The append runs outside s.mu so a rejection storm does not
		// serialize admissions behind a second fsync.
		reject := JournalEntry{Type: entryReject, ID: id}
		if jerr := s.jl.append(reject); jerr != nil {
			s.journalErrs.Add(1)
		}
		s.mu.Lock()
		s.apply(j, reject)
		s.mu.Unlock()
		if err == rt.ErrQueueFull {
			s.count(keyRejectedQueue)
		}
		return "", err
	}
	s.mu.Unlock()
	s.journalCount(keySubmitted)
	return id, nil
}

// Job returns the job state for id (nil when unknown).
func (s *Server) job(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// materialize builds the executable plan, defaulting empty job labels —
// the engine attaches metrics to every service run, and metrics-attached
// configs require attributable labels.
func materialize(spec rt.PlanSpec) (*rt.Plan, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	for i := range plan.Jobs {
		if plan.Jobs[i].Run == nil && plan.Jobs[i].Config.Label == "" {
			plan.Jobs[i].Config.Label = fmt.Sprintf("%s/job%d", plan.Name, i)
		}
	}
	return plan, nil
}

// runJob executes one admitted plan on a fresh engine, streaming per-job
// events through the engine's completion hook, and finishes the job.
func (s *Server) runJob(j *jobState) {
	s.running.Add(1)
	defer s.running.Add(-1)

	// Admission deadline: a job that sat in the queue past the bound is
	// failed without running — the client asked for a simulation, not a
	// simulation at an arbitrary future time. The error message carries
	// only the configured bound, never a measured wall-time, so reports
	// and event logs stay deterministic.
	if s.cfg.QueueTimeout > 0 && s.now().Sub(j.admitted) > s.cfg.QueueTimeout {
		s.finishFailed(j, fmt.Errorf("%w (admission deadline %s)", ErrJobTimeout, s.cfg.QueueTimeout))
		return
	}
	j.setStatus(StatusRunning)

	eng := &rt.Engine{
		Workers:     s.cfg.EngineWorkers,
		Sink:        &obs.Sink{Metrics: obs.NewRecordBuffer()},
		CycleBudget: s.cfg.CycleBudget,
		OnJobDone: func(i int, _ rt.JobResult, recs []obs.Record, err error) {
			j.append(jobEvents(i, recs, err)...)
		},
	}
	rep, err := eng.Run(j.plan)
	if err != nil {
		// Hard failure (validation): no report at all.
		s.finishFailed(j, err)
		return
	}
	s.finish(j, JournalEntry{Type: entryDone, ID: j.id, Status: StatusDone,
		Report: rep.Text, ReportHash: rt.ReportHash(rep.Text), Failed: rep.Failed})
}

// finishFailed finishes a job with a terminal failure.
func (s *Server) finishFailed(j *jobState, err error) {
	s.finish(j, JournalEntry{Type: entryDone, ID: j.id, Status: StatusFailed, Error: err.Error()})
}

// finish journals a job's terminal record write-ahead, then applies it:
// the record is durable before any client can observe the terminal
// status, so an observed completion never regresses to a re-run after a
// crash.
func (s *Server) finish(j *jobState, e JournalEntry) {
	if err := s.jl.appendDone(e); err != nil {
		// Only the completion record is lost. Leaving the journal without
		// it errs toward a redundant re-run after a crash — the safe
		// direction.
		s.journalErrs.Add(1)
	}
	s.apply(j, e)
	s.journalCount(terminalKey(e.Status))
}

// jobEvents renders one plan-job completion: its buffered metrics records
// (in record order) then the completion marker.
func jobEvents(i int, recs []obs.Record, err error) []Event {
	evs := make([]Event, 0, len(recs)+1)
	var buf bytes.Buffer
	mw := obs.NewMetricsWriter(&buf, obs.FormatJSONL)
	for _, rec := range recs {
		buf.Reset()
		mw.Write(rec)
		if mw.Err() != nil {
			break
		}
		evs = append(evs, Event{Type: "metrics", Index: i,
			Record: json.RawMessage(bytes.TrimRight(bytes.Clone(buf.Bytes()), "\n"))})
	}
	done := Event{Type: "job", Index: i, OK: err == nil}
	if err != nil {
		done.Error = err.Error()
	}
	return append(evs, done)
}

// Drain stops admitting jobs, finishes every job already admitted (queued
// or running), closes the journal, and returns — or gives up when ctx
// expires, leaving the remaining jobs running (and the journal open for
// their completion records; the next Open replays whatever landed).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.Drain()
		if err := s.jl.close(); err != nil {
			s.journalErrs.Add(1)
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

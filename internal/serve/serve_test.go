package serve

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"visa/internal/rt"
)

// tinyPlan is the cheapest real plan: one comparison job, few instances.
func tinyPlan() rt.PlanSpec {
	return rt.PlanSpec{
		Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "tiny",
		Jobs: []rt.JobSpec{{
			Version: rt.SpecVersion, Bench: "cnt",
			Config: rt.Config{Instances: 3, Label: "tiny/cnt"},
		}},
	}
}

func waitDone(t *testing.T, j *jobState) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	cursor := 0
	for {
		evs, terminal, wait := j.next(cursor)
		cursor += len(evs)
		if terminal {
			return
		}
		select {
		case <-wait:
		case <-deadline:
			t.Fatal("job did not finish in time")
		}
	}
}

func TestPoolSaturationAndDrain(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	p := NewPool(1, 2, func(*jobState) {
		started <- struct{}{}
		<-block
	})
	// One running + two queued fills the system.
	if err := p.Enqueue(&jobState{}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if err := p.Enqueue(&jobState{}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := p.Enqueue(&jobState{}); !errors.Is(err, rt.ErrQueueFull) {
		t.Fatalf("saturated enqueue err = %v, want ErrQueueFull", err)
	}

	drained := make(chan struct{})
	go func() { p.Drain(); close(drained) }()
	// Drain must reject new work immediately and still finish admitted work.
	for {
		if err := p.Enqueue(&jobState{}); errors.Is(err, ErrDraining) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with jobs still running")
	default:
	}
	close(block)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not complete")
	}
}

func TestQuotasRefill(t *testing.T) {
	q := NewQuotas(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("alice"); !ok {
			t.Fatalf("burst submission %d denied", i)
		}
	}
	ok, retry := q.Allow("alice")
	if ok {
		t.Fatal("third immediate submission allowed past burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0s, 1s]", retry)
	}
	// Other clients are unaffected.
	if ok, _ := q.Allow("bob"); !ok {
		t.Fatal("independent client denied")
	}
	// After the advertised wait, the token is back.
	now = now.Add(retry)
	if ok, _ := q.Allow("alice"); !ok {
		t.Fatal("submission after Retry-After still denied")
	}
	// Rate 0 disables enforcement.
	free := NewQuotas(0, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := free.Allow("x"); !ok {
			t.Fatal("disabled quotas denied a request")
		}
	}
}

func TestSubmitLifecycle(t *testing.T) {
	s := New(Config{PoolWorkers: 1, EngineWorkers: 2})
	id, err := s.Submit("alice", tinyPlan())
	if err != nil {
		t.Fatal(err)
	}
	j := s.job(id)
	if j == nil {
		t.Fatal("submitted job not in store")
	}
	waitDone(t, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone || j.failed != 0 {
		t.Fatalf("status=%s failed=%d err=%q", j.status, j.failed, j.errMsg)
	}
	if !strings.Contains(j.report, "POWER COMPARISON") {
		t.Errorf("report missing generic sections:\n%s", j.report)
	}
	// The event log closes with report + done, preceded by per-job events.
	last := j.events[len(j.events)-1]
	if last.Type != "done" || last.Status != StatusDone {
		t.Errorf("final event = %+v", last)
	}
	var metrics, jobs int
	for _, ev := range j.events {
		switch ev.Type {
		case "metrics":
			metrics++
			var rec map[string]any
			if err := json.Unmarshal(ev.Record, &rec); err != nil {
				t.Fatalf("metrics record is not JSON: %v", err)
			}
		case "job":
			jobs++
		}
	}
	if jobs != 1 || metrics == 0 {
		t.Errorf("event log: %d job events, %d metrics events", jobs, metrics)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := New(Config{})
	if _, err := s.Submit("alice", rt.PlanSpec{Version: 9}); !errors.Is(err, rt.ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
}

func TestSubmitQuotaDenied(t *testing.T) {
	s := New(Config{QuotaRate: 0.001, QuotaBurst: 1, PoolWorkers: 1})
	if _, err := s.Submit("alice", tinyPlan()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit("alice", tinyPlan())
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("quota error carries no Retry-After: %v", err)
	}
	// A different client is unaffected.
	if _, err := s.Submit("bob", tinyPlan()); err != nil {
		t.Fatal(err)
	}
}

func TestServerDrain(t *testing.T) {
	s := New(Config{PoolWorkers: 1, EngineWorkers: 1})
	id, err := s.Submit("alice", tinyPlan())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The in-flight job completed; new submissions are refused.
	j := s.job(id)
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	if st != StatusDone {
		t.Errorf("drained job status = %s, want done", st)
	}
	if _, err := s.Submit("alice", tinyPlan()); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
}

package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBackoffSchedule pins the schedule's shape: exponential doubling
// from backoffBase capped at backoffCap, every hint-less delay within
// [d/2, d].
func TestBackoffSchedule(t *testing.T) {
	nominal := backoffBase
	for attempt := 1; attempt <= 12; attempt++ {
		d := backoffDelay(42, attempt, 0)
		if d < nominal/2 || d > nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		nominal = min(2*nominal, backoffCap)
	}
	// Far past the doubling range: still capped, no overflow.
	if d := backoffDelay(42, 1000, 0); d < backoffCap/2 || d > backoffCap {
		t.Errorf("attempt 1000: delay %v outside [%v, %v]", d, backoffCap/2, backoffCap)
	}
}

// TestBackoffDeterministic: same seed → identical schedule (replayable
// runs); different seeds → decorrelated schedules (no thundering herd).
func TestBackoffDeterministic(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = backoffDelay(seed, i+1, 0)
		}
		return out
	}
	a, b := sched(7), sched(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sched(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestBackoffHonorsRetryAfter: an exact server hint is used verbatim — no
// jitter, no scaling — at any attempt.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	for _, attempt := range []int{1, 2, 30} {
		if d := backoffDelay(1, attempt, 3*time.Second); d != 3*time.Second {
			t.Errorf("attempt %d: Retry-After 3s gave %v", attempt, d)
		}
	}
}

// TestBackoffDefaults: the fixed schedule starts at a positive delay no
// longer than backoffBase and never waits past backoffCap.
func TestBackoffDefaults(t *testing.T) {
	if backoffBase <= 0 || backoffCap < backoffBase {
		t.Fatalf("base %v, cap %v: need 0 < base <= cap", backoffBase, backoffCap)
	}
	if d := backoffDelay(1, 1, 0); d <= 0 || d > backoffBase {
		t.Errorf("first delay %v outside (0, %v]", d, backoffBase)
	}
}

// refusing is a daemon stand-in that answers the first submits with
// status code and headers, then accepts; it records when each submit
// arrived.
type refusing struct {
	refusals int
	code     int
	header   map[string]string

	mu       sync.Mutex
	arrivals []time.Time
}

func (r *refusing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	r.arrivals = append(r.arrivals, time.Now())
	n := len(r.arrivals)
	r.mu.Unlock()
	if n <= r.refusals {
		for k, v := range r.header {
			w.Header().Set(k, v)
		}
		writeJSON(w, r.code, errorResponse{Error: "refused"})
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "j000001", Status: StatusQueued})
}

func (r *refusing) submits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arrivals)
}

// gap is the time between the first two submits.
func (r *refusing) gap(t *testing.T) time.Duration {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.arrivals) < 2 {
		t.Fatalf("%d submits arrived, want 2", len(r.arrivals))
	}
	return r.arrivals[1].Sub(r.arrivals[0])
}

func submitTo(t *testing.T, h http.Handler) (id string, retries int, err error) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, ID: "t", HTTP: ts.Client(), Deadline: time.Now().Add(30 * time.Second), Seed: 1}
	return c.Submit([]byte("{}"))
}

// TestClientRetryAfterExact: a 429 with Retry-After: 1 waits the hint —
// one second, not the sub-second jittered backoff — then resubmits.
func TestClientRetryAfterExact(t *testing.T) {
	srv := &refusing{refusals: 1, code: http.StatusTooManyRequests,
		header: map[string]string{"Retry-After": "1"}}
	id, retries, err := submitTo(t, srv)
	if err != nil || id != "j000001" || retries != 1 {
		t.Fatalf("Submit = %q, %d retries, %v; want j000001, 1 retry", id, retries, err)
	}
	if g := srv.gap(t); g < time.Second || g > time.Second+backoffBase {
		t.Errorf("resubmitted after %v, want the 1s hint", g)
	}
}

// TestClientBackoffWindow: a hint-less 429 waits inside the first backoff
// window [backoffBase/2, backoffBase].
func TestClientBackoffWindow(t *testing.T) {
	srv := &refusing{refusals: 1, code: http.StatusTooManyRequests}
	if _, retries, err := submitTo(t, srv); err != nil || retries != 1 {
		t.Fatalf("Submit: %d retries, %v", retries, err)
	}
	// The upper slack absorbs scheduling; the window is well under 1s.
	if g := srv.gap(t); g < backoffBase/2 || g > backoffBase+200*time.Millisecond {
		t.Errorf("resubmitted after %v, want within [%v, %v]", g, backoffBase/2, backoffBase)
	}
}

// TestClientStatusError: a refusal other than 429 is not retried and
// surfaces as a *StatusError carrying the code and the daemon's text.
func TestClientStatusError(t *testing.T) {
	srv := &refusing{refusals: 1, code: http.StatusServiceUnavailable}
	_, retries, err := submitTo(t, srv)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.Msg != "refused" {
		t.Fatalf("Submit error = %v, want *StatusError 503 refused", err)
	}
	if retries != 0 || srv.submits() != 1 {
		t.Errorf("503 was retried: %d retries, %d submits", retries, srv.submits())
	}
}

// streamOf serves body as every job's NDJSON stream.
func streamOf(t *testing.T, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

// TestReplayRequiresDone: a stream cut before its done event (a daemon
// that died mid-job) is an error, not a short replay.
func TestReplayRequiresDone(t *testing.T) {
	c := streamOf(t, `{"type":"job","index":0,"ok":true}`+"\n"+`{"type":"report","text":"r"}`+"\n")
	if _, _, err := c.Replay("j1"); err == nil || !strings.Contains(err.Error(), "done") {
		t.Fatalf("Replay of a stream without done: err = %v", err)
	}
}

// TestReplayPlanOrder: interleaved per-index events come back stably
// sorted by index, then the tail in arrival order.
func TestReplayPlanOrder(t *testing.T) {
	in := []Event{
		{Type: "metrics", Index: 2, Text: "m2a"},
		{Type: "metrics", Index: 0, Text: "m0"},
		{Type: "metrics", Index: 2, Text: "m2b"},
		{Type: "job", Index: 2, OK: true},
		{Type: "job", Index: 1, OK: true},
		{Type: "job", Index: 0, OK: true},
		{Type: "report", Text: "r"},
		{Type: "done", Status: StatusDone},
	}
	var body strings.Builder
	for _, ev := range in {
		b, _ := json.Marshal(ev)
		body.Write(append(b, '\n'))
	}
	replay, full, err := streamOf(t, body.String()).Replay("j1")
	if err != nil || !full {
		t.Fatalf("Replay: full=%v err=%v", full, err)
	}
	want := []Event{in[1], in[5], in[4], in[0], in[2], in[3], in[6], in[7]}
	var wantBody strings.Builder
	for _, ev := range want {
		b, _ := json.Marshal(ev)
		wantBody.Write(append(b, '\n'))
	}
	if string(replay) != wantBody.String() {
		t.Errorf("replay:\n%s\nwant:\n%s", replay, wantBody.String())
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, client, body string) (*http.Response, SubmitResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, sr
}

// testClient is a serve.Client on ts with a test-sized deadline.
func testClient(ts *httptest.Server, id string) *Client {
	return &Client{Base: ts.URL, ID: id, HTTP: ts.Client(), Deadline: time.Now().Add(120 * time.Second)}
}

// submitWait submits body as client id and waits for the job to finish.
func submitWait(t *testing.T, ts *httptest.Server, id, body string) (string, JobResponse) {
	t.Helper()
	c := testClient(ts, id)
	jobID, _, err := c.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := c.Wait(jobID)
	if err != nil {
		t.Fatal(err)
	}
	return jobID, jr
}

// readStream consumes the NDJSON stream to its done event and returns every
// line's decoded Event alongside the raw line.
func readStream(t *testing.T, ts *httptest.Server, id string) ([]Event, []string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var evs []Event
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("stream did not close with done: %d events", len(evs))
	}
	return evs, lines
}

func tinyPlanJSON(t *testing.T) string {
	t.Helper()
	enc, err := tinyPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

func TestHTTPSubmitAndReport(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolWorkers: 2, EngineWorkers: 2})
	_, jr := submitWait(t, ts, "alice", tinyPlanJSON(t))
	if jr.Failed != 0 {
		t.Fatalf("job = %+v", jr)
	}
	if !strings.Contains(jr.Report, "POWER COMPARISON") {
		t.Errorf("report missing sections:\n%s", jr.Report)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":      "{",
		"unknown field": `{"version":1,"kind":"table3","typo":1}`,
		"bad spec":      `{"version":9,"kind":"table3"}`,
		"histogram miss out of range": `{"version":1,"kind":"custom","name":"h","jobs":[` +
			`{"version":1,"bench":"cnt","config":{"policy":"histogram","histogram_miss":-3}}]}`,
		"freq advantage overflows": `{"version":1,"kind":"custom","name":"f","jobs":[` +
			`{"version":1,"bench":"cnt","config":{"freq_advantage":1e300,"instances":3,"label":"p"}}]}`,
	} {
		resp, _ := submit(t, ts, "alice", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPQuota429(t *testing.T) {
	_, ts := newTestServer(t, Config{QuotaRate: 0.001, QuotaBurst: 1, PoolWorkers: 1})
	body := tinyPlanJSON(t)
	if resp, _ := submit(t, ts, "alice", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	resp, _ := submit(t, ts, "alice", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integral seconds >= 1", resp.Header.Get("Retry-After"))
	}
	// An unthrottled client still gets through.
	if resp, _ := submit(t, ts, "bob", body); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other client status = %d", resp.StatusCode)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, QueueDepth: 1})
	// Swap in a blocking pool before any traffic: one occupied worker plus
	// a single queue slot saturates admission deterministically.
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	var once sync.Once
	s.pool = NewPool(1, 1, func(*jobState) {
		once.Do(func() { close(started) })
		<-block
	})
	body := tinyPlanJSON(t)
	if resp, _ := submit(t, ts, "a", body); resp.StatusCode != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	<-started
	if resp, _ := submit(t, ts, "b", body); resp.StatusCode != http.StatusAccepted {
		t.Fatal("queued submit rejected")
	}
	resp, _ := submit(t, ts, "c", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolWorkers: 1})
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz = %+v", h)
	}

	submitWait(t, ts, "alice", tinyPlanJSON(t))

	resp, err = ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var samples []MetricSample
	json.NewDecoder(resp.Body).Decode(&samples)
	resp.Body.Close()
	got := map[string]float64{}
	for _, smp := range samples {
		got[smp.Name] = smp.Value
	}
	if got["serve.jobs.submitted"] != 1 || got["serve.jobs.completed"] != 1 {
		t.Errorf("metrics = %v", got)
	}
	if _, ok := got["serve.queue.depth"]; !ok {
		t.Error("metrics missing serve.queue.depth")
	}
}

// planOrderReplay re-encodes a raw stream in PlanOrder, one line per event.
func planOrderReplay(evs []Event) []string {
	out := make([]string, 0, len(evs))
	for _, ev := range PlanOrder(evs) {
		b, _ := json.Marshal(ev)
		out = append(out, string(b))
	}
	return out
}

// TestStreamDeterminismAcrossWorkerCounts is the service-level determinism
// e2e: two daemons with different engine parallelism serve the same plan;
// the reports are byte-identical and the event streams are identical after
// plan-order replay.
func TestStreamDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := tinyPlan()
	spec.Jobs = append(spec.Jobs, spec.Jobs[0], spec.Jobs[0], spec.Jobs[0])
	for i := range spec.Jobs {
		spec.Jobs[i].Config.Label = fmt.Sprintf("tiny/cnt%d", i)
	}
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		report string
		replay []string
	}
	run := func(workers int) result {
		_, ts := newTestServer(t, Config{PoolWorkers: 1, EngineWorkers: workers})
		id, jr := submitWait(t, ts, "alice", string(enc))
		evs, _ := readStream(t, ts, id)
		return result{report: jr.Report, replay: planOrderReplay(evs)}
	}

	serial := run(1)
	parallel := run(4)
	if serial.report != parallel.report {
		t.Errorf("reports differ across worker counts:\n--- j1\n%s\n--- j4\n%s",
			serial.report, parallel.report)
	}
	if !equalLines(serial.replay, parallel.replay) {
		t.Errorf("plan-order replays differ: %d vs %d lines",
			len(serial.replay), len(parallel.replay))
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentClientsIdenticalReports: many concurrent clients submit the
// same plan and every one reads back a byte-identical report.
func TestConcurrentClientsIdenticalReports(t *testing.T) {
	const clients = 12
	_, ts := newTestServer(t, Config{PoolWorkers: 4, EngineWorkers: 2, QueueDepth: clients + 4})
	body := tinyPlanJSON(t)

	reports := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := testClient(ts, fmt.Sprintf("client-%d", c))
			id, _, err := cl.Submit([]byte(body))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			jr, err := cl.Wait(id)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			reports[c] = jr.Report
		}(c)
	}
	wg.Wait()
	for c := 1; c < clients; c++ {
		if reports[c] != reports[0] {
			t.Fatalf("client %d report differs from client 0", c)
		}
	}
	if reports[0] == "" {
		t.Fatal("empty reports")
	}
	if !bytes.Contains([]byte(reports[0]), []byte("POWER COMPARISON")) {
		t.Errorf("report missing sections:\n%s", reports[0])
	}
}

func TestHTTPDrain503(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := submit(t, ts, "alice", tinyPlanJSON(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", resp.StatusCode)
	}
	hr, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if h.Status != "draining" || !h.Draining {
		t.Errorf("healthz while draining = %+v", h)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"visa/internal/fault"
)

// The hint-less 429 backoff schedule: the first retry waits up to
// backoffBase, each later one doubles, capped at backoffCap.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// pollInterval is how often Wait re-reads a job's status.
const pollInterval = 20 * time.Millisecond

// Client is the Go client of the visad HTTP API: the one place that builds
// /v1/jobs requests and reads them back. A Client is safe for concurrent
// use; give each logical client its own ID and Seed.
type Client struct {
	// Base is the daemon's URL, e.g. "http://127.0.0.1:8080".
	Base string
	// ID is sent as X-Client-ID, the key of the daemon's per-client quota.
	ID string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Deadline bounds Submit's 429 backoff and Wait's polling; zero means
	// no deadline.
	Deadline time.Time
	// Seed drives the backoff jitter, so a run with a fixed seed replays
	// the same sleep pattern.
	Seed uint64
}

// StatusError is an HTTP answer other than the one the call expects: a
// submit refused with 400/503/504, or a 429 still refused at the deadline.
type StatusError struct {
	Code int
	Msg  string // the daemon's error text
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// expired reports whether t is past the deadline.
func (c *Client) expired(t time.Time) bool {
	return !c.Deadline.IsZero() && t.After(c.Deadline)
}

// statusError reads the refusal text of a response the caller will not
// decode and closes it.
func statusError(resp *http.Response) *StatusError {
	defer resp.Body.Close()
	var er errorResponse
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(msg, &er) == nil && er.Error != "" {
		return &StatusError{Code: resp.StatusCode, Msg: er.Error}
	}
	return &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
}

// Submit posts a plan spec and returns the job ID and how many 429 rounds
// it absorbed. On 429 it retries until the deadline: an exact Retry-After
// is honoured verbatim, otherwise backoffDelay decides. Any other refusal
// is a *StatusError.
func (c *Client) Submit(body []byte) (id string, retries int, err error) {
	for {
		req, err := http.NewRequest("POST", c.Base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", retries, err
		}
		req.Header.Set("X-Client-ID", c.ID)
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return "", retries, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			defer resp.Body.Close()
			var sr SubmitResponse
			err := json.NewDecoder(resp.Body).Decode(&sr)
			return sr.ID, retries, err
		case http.StatusTooManyRequests:
			var hint time.Duration
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 1 {
				hint = time.Duration(secs) * time.Second
			}
			refusal := statusError(resp)
			retries++
			delay := backoffDelay(c.Seed, retries, hint)
			//visa:allow(detlint): 429 backoff is wall-clock by definition
			wake := time.Now().Add(delay)
			if c.expired(wake) {
				return "", retries, fmt.Errorf("submit: deadline exceeded while backing off %s: %w", delay, refusal)
			}
			time.Sleep(delay)
		default:
			return "", retries, fmt.Errorf("submit: %w", statusError(resp))
		}
	}
}

// backoffDelay is the wait before the attempt-th retry (attempt >= 1). An
// exact server hint is used verbatim: the server knows its backlog better
// than any client-side guess. Otherwise the delay is uniform in [d/2, d]
// with d = min(backoffCap, backoffBase<<(attempt-1)), the jitter drawn
// from fault.DeriveSeed(seed, attempt): clients that saw the same 429
// burst decorrelate, and the schedule is a pure function of its inputs.
func backoffDelay(seed uint64, attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := backoffCap
	// base<<k overflows past ~63 shifts; stop doubling once past the cap.
	if shift := uint(attempt - 1); shift < 40 && backoffBase<<shift < backoffCap {
		d = backoffBase << shift
	}
	half := d / 2
	return half + time.Duration(fault.DeriveSeed(seed, uint64(attempt))%uint64(half+1))
}

// Job reads the job's status document.
func (c *Client) Job(id string) (JobResponse, error) {
	resp, err := c.http().Get(c.Base + "/v1/jobs/" + id)
	if err != nil {
		return JobResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return JobResponse{}, fmt.Errorf("job %s: %w", id, statusError(resp))
	}
	defer resp.Body.Close()
	var jr JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	return jr, err
}

// Wait polls the job until it is done or failed. A failed job returns its
// status document and an error carrying the job's error text.
func (c *Client) Wait(id string) (JobResponse, error) {
	for {
		jr, err := c.Job(id)
		if err != nil {
			return jr, err
		}
		switch jr.Status {
		case StatusDone:
			return jr, nil
		case StatusFailed:
			return jr, fmt.Errorf("job %s failed: %s", id, jr.Error)
		}
		//visa:allow(detlint): polling deadline against the wall clock; the job itself runs in simulated time
		if c.expired(time.Now()) {
			return jr, fmt.Errorf("job %s: deadline exceeded (status %s)", id, jr.Status)
		}
		time.Sleep(pollInterval)
	}
}

// Replay reads the job's NDJSON stream to completion and returns it in
// plan order (PlanOrder), one JSON event per line. full reports whether
// the log holds per-job events; a job rehydrated from the journal streams
// only its report and done. A stream that does not end with done is an
// error.
func (c *Client) Replay(id string) (replay []byte, full bool, err error) {
	resp, err := c.http().Get(c.Base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("stream %s: %w", id, statusError(resp))
	}
	defer resp.Body.Close()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, false, fmt.Errorf("stream %s: bad NDJSON line: %v", id, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		return nil, false, fmt.Errorf("stream %s did not end with done (%d events)", id, len(evs))
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, ev := range PlanOrder(evs) {
		if err := enc.Encode(ev); err != nil {
			return nil, false, err
		}
		full = full || perJob(ev)
	}
	return out.Bytes(), full, nil
}

// PlanOrder is the deterministic view of a job's event stream: the
// "metrics" and "job" events stably sorted by plan index (keeping each
// index's emission order), then the rest (report, done) in arrival order.
// Events arrive in completion order, which depends on worker scheduling;
// this order does not.
func PlanOrder(evs []Event) []Event {
	out := make([]Event, 0, len(evs))
	for _, ev := range evs {
		if perJob(ev) {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	for _, ev := range evs {
		if !perJob(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// perJob reports whether ev belongs to one plan job rather than the tail.
func perJob(ev Event) bool { return ev.Type == "metrics" || ev.Type == "job" }

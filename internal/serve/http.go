package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"visa/internal/rt"
)

// SubmitResponse is the POST /v1/jobs success body.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// JobResponse is the GET /v1/jobs/{id} body.
type JobResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Report is the engine's merged plan-order report text, present once
	// the job is done — the byte-identical artifact across daemons.
	Report string `json:"report,omitempty"`
	// ReportHash is rt.ReportHash(Report): the content address journaled
	// with the completion record and verified on recovery.
	ReportHash string `json:"report_hash,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	Error      string `json:"error,omitempty"`
	// Recovered marks a job that crossed a daemon crash: rehydrated from
	// the journal (done before the crash) or re-run after restart.
	Recovered bool `json:"recovered,omitempty"`
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" | "draining"
	Queued   int    `json:"queued"`
	Running  int64  `json:"running"`
	Done     int64  `json:"done"`
	Draining bool   `json:"draining"`
}

// MetricSample is one GET /v1/metrics entry.
type MetricSample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler mounts the service API:
//
//	POST /v1/jobs            submit a PlanSpec, get {"id": "j000001"}
//	GET  /v1/jobs/{id}       status document (+ report when done)
//	GET  /v1/jobs/{id}/stream NDJSON event stream (metrics/job/report/done)
//	GET  /v1/healthz         liveness + queue/running/done counts
//	GET  /v1/metrics         registry snapshot (service counters)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// clientID identifies the submitting client for quota accounting: the
// X-Client-ID header when present, else the peer host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// httpStatus maps a Submit error onto a status code and an optional
// Retry-After, strictly via errors.Is — no string matching.
func httpStatus(err error) (code int, retryAfter time.Duration) {
	var qe *QuotaError
	switch {
	case errors.Is(err, rt.ErrInvalidSpec):
		return http.StatusBadRequest, 0
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, qe.RetryAfter
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, time.Second
	case errors.Is(err, rt.ErrQueueFull):
		// The backlog drains at simulation speed; a fixed short backoff is
		// the honest estimate.
		return http.StatusTooManyRequests, time.Second
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, 0
	case errors.Is(err, ErrJobTimeout):
		return http.StatusGatewayTimeout, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //visa:allow(errlint): the response is already committed; a failed write has no recovery path
}

func writeError(w http.ResponseWriter, err error) {
	code, retry := httpStatus(err)
	if retry > 0 {
		// Retry-After is integral seconds; round up so "wait 300ms" does
		// not become "retry immediately".
		secs := int64((retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var spec rt.PlanSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.rejectedSpec.Add(1)
		writeError(w, fmt.Errorf("%w: %s", rt.ErrInvalidSpec, err))
		return
	}
	id, err := s.Submit(clientID(r), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, Status: StatusQueued})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	j.mu.Lock()
	resp := JobResponse{ID: j.id, Status: j.status, Report: j.report,
		ReportHash: j.reportHash, Failed: j.failed, Error: j.errMsg,
		Recovered: j.recovered}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleStream serves the job's event log as NDJSON, long-polling until the
// terminal "done" event. Every line is one Event; replaying "metrics" and
// "job" lines sorted by index reconstructs the deterministic plan-order
// stream regardless of worker scheduling.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		evs, terminal, wait := j.next(cursor)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		cursor += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// Drain any events appended between next() and now on the next
			// loop; terminal state means the log is complete once empty.
			if evs2, _, _ := j.next(cursor); len(evs2) == 0 {
				return
			}
			continue
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{
		Status:   "ok",
		Queued:   s.pool.Depth(),
		Running:  s.running.Load(),
		Done:     s.completed.Load() + s.failed.Load(),
		Draining: s.draining.Load(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	samples := s.reg.Snapshot()
	out := make([]MetricSample, len(samples))
	for i, smp := range samples {
		out[i] = MetricSample{Name: smp.Name, Value: float64(smp.Value)}
	}
	writeJSON(w, http.StatusOK, out)
}

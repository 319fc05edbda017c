package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/rt"
	"visa/internal/serve"
	"visa/internal/wal"
)

// Service sizes: visad's defaults (-workers 2 -queue 16, journal on,
// -journal-sync always) except -j 1, so that the two plans running at once
// are the two goroutines doing work on the two-core host; at visad's
// default -j 2 four would share two cores.
const (
	serveInstances      = 4 // task instances per benchmark in a visad job
	quickServeInstances = 1
	serveEngineWorkers  = 1
	serveQueue          = 16
	serveClients        = 2
	serveWindow         = 32
	quickServeWindow    = 8
)

// serveConfig is the service's configuration with its journal at path.
func serveConfig(journal string) serve.Config {
	return serve.Config{
		EngineWorkers: serveEngineWorkers,
		PoolWorkers:   serveClients,
		QueueDepth:    serveQueue,
		JournalPath:   journal,
		JournalSync:   wal.SyncAlways,
	}
}

// service is an in-process visad: serve.Open on a journal, served on a
// loopback listener.
type service struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	journal string
}

// startService opens a journaled server in dir. wrap, when non-nil,
// wraps the API handler (the ladder times the submit handler with it).
func startService(dir string, wrap func(http.Handler) http.Handler) (*service, error) {
	journal := dir + "/journal.wal"
	srv, _, err := serve.Open(serveConfig(journal))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain(srv) //visa:allow(errlint): the listen error is the one reported
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{
		srv:     srv,
		httpSrv: &http.Server{Handler: h},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		journal: journal,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
		}},
	}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Drain(ctx)
}

// stop drains the server (every admitted job finishes, the journal
// closes), shuts the listener down and waits for the serving goroutine.
func (s *service) stop() error {
	err := drain(s.srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if serr := s.httpSrv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// jobOutcome is what one client observed for one visad job.
type jobOutcome struct {
	postRTT    time.Duration // POST /v1/jobs round trip
	firstEvent time.Duration // submit to the first stream event
	events     int
	report     string
}

// submitAndWait is one closed-loop client step: POST the spec, then read
// the job's NDJSON stream to its done event. A non-202 answer, a stream
// error, a failed plan job or a missing report is an error.
func submitAndWait(c *http.Client, base, client string, body []byte) (jobOutcome, error) {
	var out jobOutcome
	start := now()
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("X-Client-ID", client)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return out, err
	}
	var sr serve.SubmitResponse
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close() //visa:allow(errlint): the status is the error reported
		return out, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close() //visa:allow(errlint): the body was read in full or its decode error is reported
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.postRTT = now().Sub(start)

	resp, err = c.Get(base + "/v1/jobs/" + sr.ID + "/stream")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stream %s: %s", sr.ID, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	done := false
	for sc.Scan() {
		if out.events == 0 {
			out.firstEvent = now().Sub(start)
		}
		out.events++
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return out, fmt.Errorf("stream %s: %w", sr.ID, err)
		}
		switch ev.Type {
		case "job":
			if !ev.OK {
				return out, fmt.Errorf("job %s: plan job %d failed: %s", sr.ID, ev.Index, ev.Error)
			}
		case "report":
			out.report = ev.Text
		case "done":
			if ev.Status != serve.StatusDone {
				return out, fmt.Errorf("job %s ended %s: %s", sr.ID, ev.Status, ev.Error)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("stream %s: %w", sr.ID, err)
	}
	if !done || out.report == "" {
		return out, fmt.Errorf("stream %s ended without a report", sr.ID)
	}
	return out, nil
}

// pairSpec is one visad job: a custom plan comparing two benchmarks.
func pairSpec(a, b string, instances int) rt.PlanSpec {
	job := func(name string) rt.JobSpec {
		return rt.JobSpec{Version: rt.SpecVersion, Bench: name,
			Config: rt.ConfigSpec{Instances: instances, Label: "bench/" + name}}
	}
	return rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "pair",
		Jobs: []rt.JobSpec{job(a), job(b)}}
}

// offlineReport runs spec on an rt.Engine in this process, with the
// service's engine workers and visad's default cycle budget.
func offlineReport(spec rt.PlanSpec) (string, error) {
	plan, err := spec.Plan()
	if err != nil {
		return "", err
	}
	rep, err := (&rt.Engine{Workers: serveEngineWorkers, CycleBudget: serve.DefaultCycleBudget}).Run(plan)
	if err != nil {
		return "", err
	}
	if err := rep.Err(); err != nil {
		return "", err
	}
	return rep.Text, nil
}

// serveClosedLoop drives an in-process visad over loopback HTTP: two
// clients, each POSTing a job and reading its stream to done before
// sending the next (visaload's client model at visad defaults). Each job
// compares two benchmarks; client sets the mix. It is the only workload
// that touches serve (HTTP, JSON, admission, NDJSON) and wal (append and
// fsync per admission and completion). Set-up starts the server and warms
// it up with one job per benchmark, which builds every rt.Setup through
// the service.
type serveClosedLoop struct {
	cfg       config
	benches   []*clab.Benchmark
	instances int
	dir       string
	svc       *service

	mu      sync.Mutex
	reports map[string]string // encoded spec -> first report text
	specs   map[string]rt.PlanSpec
}

func newServeClosedLoop(cfg config) workload {
	s := &serveClosedLoop{cfg: cfg, benches: benchesFor(cfg), instances: serveInstances,
		reports: map[string]string{}, specs: map[string]rt.PlanSpec{}}
	if cfg.quick {
		s.instances = quickServeInstances
	}
	return s
}

// window is a fixed number of completed jobs (about a second's worth): a
// closed loop has no rounds.
func (s *serveClosedLoop) window() int {
	if s.cfg.quick {
		return quickServeWindow
	}
	return serveWindow
}

func (s *serveClosedLoop) setup(r *runner) error {
	var err error
	if s.dir, err = newWorkDir(s.cfg, "serve"); err != nil {
		return err
	}
	if s.svc, err = startService(s.dir, nil); err != nil {
		return err
	}
	// Warm-up: one single-benchmark job per benchmark, two clients.
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(s.benches); i += serveClients {
				spec := rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "warmup",
					Jobs: []rt.JobSpec{{Version: rt.SpecVersion, Bench: s.benches[i].Name,
						Config: rt.ConfigSpec{Instances: s.instances}}}}
				body, err := spec.Encode()
				if err == nil {
					_, err = submitAndWait(s.svc.client, s.svc.base, fmt.Sprintf("warmup-%d", c), body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up %s: %w", s.benches[i].Name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *serveClosedLoop) measure(r *runner, until time.Time) error {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(r, c, until)
		}(c)
	}
	wg.Wait()
	return nil
}

// client is one closed-loop client. It walks cycles through every ordered
// pair of benchmarks, each cycle in an order shuffled from the seed and
// the client's index: the order of jobs varies with the seed, the mix
// within a run does not.
func (s *serveClosedLoop) client(r *runner, c int, until time.Time) {
	n := len(s.benches)
	order := make([]int, n*n)
	for i := range order {
		order[i] = i
	}
	name := fmt.Sprintf("client-%d", c)
	for k := 0; k == 0 || r.more(until); k++ {
		if k%len(order) == 0 {
			for i := len(order) - 1; i > 0; i-- {
				j := fault.DeriveSeed(s.cfg.seed, uint64(c), uint64(k), uint64(i)) % uint64(i+1)
				order[i], order[j] = order[j], order[i]
			}
		}
		a, b := s.benches[order[k%len(order)]/n], s.benches[order[k%len(order)]%n]
		pair := a.Name + "+" + b.Name
		spec := pairSpec(a.Name, b.Name, s.instances)
		body, err := spec.Encode()
		if err != nil {
			r.op(pair, now(), err)
			continue
		}
		start := now()
		id := r.spans.beginLane(0, c+1, "serve.job/"+pair, int64(c)<<32|int64(k))
		out, err := submitAndWait(s.svc.client, s.svc.base, name, body)
		r.spans.end(id)
		r.op(pair, start, err)
		if err != nil {
			continue
		}
		for _, bench := range []*clab.Benchmark{a, b} {
			if st, serr := rt.GetSetup(bench); serr == nil {
				r.addSimInsts(2 * int64(s.instances) * st.DynInsts)
			}
		}
		s.keep(r, spec, string(body), out.report)
	}
}

// keep stores the first report of each distinct spec and checks later
// reports of the same spec against it.
func (s *serveClosedLoop) keep(r *runner, spec rt.PlanSpec, key, report string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.reports[key]; !ok {
		s.reports[key], s.specs[key] = report, spec
	} else if first != report {
		r.gold.fail("serve: two reports of one spec differ: %s", key)
	}
}

// verify re-runs every distinct spec on an offline engine: each visad
// report must equal it byte for byte.
func (s *serveClosedLoop) verify(r *runner) error {
	keys := make([]string, 0, len(s.specs))
	for key := range s.specs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want, err := offlineReport(s.specs[key])
		if err != nil {
			return err
		}
		if s.reports[key] != want {
			r.gold.fail("serve: visad report differs from the offline engine for %s", key)
		}
	}
	return nil
}

func (s *serveClosedLoop) close() error {
	var err error
	if s.svc != nil {
		err = s.svc.stop()
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// Command visaload is the load generator and determinism checker for a
// running visad daemon: N concurrent clients submit the same plan spec,
// honor 429 Retry-After backoff, wait for completion, and assert that
// every client read back a byte-identical report — the service-level
// determinism acceptance check.
//
// Usage:
//
//	visaload [-addr http://localhost:8080] [-clients 50] [-plan spec.json]
//	         [-stream] [-timeout 5m] [-seed 1]
//
// Without -plan a small built-in comparison plan is used. With -stream
// each client also consumes the NDJSON event stream and the tool asserts
// the plan-order replays are identical across clients. Exits nonzero on
// any submission failure, job failure, or report mismatch.
//
// 429 handling is serve.Client's: an exact Retry-After from the server is
// honored verbatim; without one, clients back off on a capped exponential
// schedule (100ms doubling to 5s) with deterministic per-client jitter
// seeded from -seed, so a run replays the identical sleep pattern and a
// 429 burst never re-synchronizes into a thundering herd.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"visa/internal/fault"
	"visa/internal/rt"
	"visa/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "visad base URL")
	clients := flag.Int("clients", 50, "concurrent clients")
	planPath := flag.String("plan", "", "plan spec JSON file (default: built-in comparison plan)")
	stream := flag.Bool("stream", false, "also consume and compare NDJSON event streams")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-client overall deadline")
	seed := flag.Uint64("seed", 1, "jitter seed; same seed replays the same backoff schedule")
	flag.Parse()

	spec, err := loadPlan(*planPath)
	if err != nil {
		fatal(err)
	}
	body, err := spec.Encode()
	if err != nil {
		fatal(err)
	}

	type result struct {
		report  string
		replay  []byte
		retries int
		err     error
	}
	results := make([]result, *clients)
	//visa:allow(detlint): a load generator lives in wall-clock service time, not simulated time
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			cl := &serve.Client{
				Base:     *addr,
				ID:       fmt.Sprintf("load-%d", c),
				HTTP:     &http.Client{Timeout: *timeout},
				Deadline: start.Add(*timeout),
				Seed:     fault.DeriveSeed(*seed, uint64(c)),
			}
			id, retries, err := cl.Submit(body)
			r.retries = retries
			if err != nil {
				r.err = err
				return
			}
			if *stream {
				if r.replay, _, r.err = cl.Replay(id); r.err != nil {
					return
				}
			}
			jr, err := cl.Wait(id)
			if err == nil && jr.Failed > 0 {
				err = fmt.Errorf("job %s: %d plan jobs failed", id, jr.Failed)
			}
			r.report, r.err = jr.Report, err
		}(c)
	}
	wg.Wait()
	//visa:allow(detlint): wall-clock elapsed time is the load report, not a simulation result
	elapsed := time.Since(start)

	failures, retries := 0, 0
	for c := range results {
		retries += results[c].retries
		if results[c].err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "visaload: client %d: %v\n", c, results[c].err)
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d/%d clients failed", failures, *clients))
	}
	for c := 1; c < *clients; c++ {
		if results[c].report != results[0].report {
			fatal(fmt.Errorf("determinism violation: client %d report differs from client 0", c))
		}
		if *stream && !bytes.Equal(results[c].replay, results[0].replay) {
			fatal(fmt.Errorf("determinism violation: client %d stream replay differs from client 0", c))
		}
	}
	if results[0].report == "" {
		fatal(fmt.Errorf("empty report"))
	}
	fmt.Printf("visaload: %d clients, %d retries after 429, %.2fs wall: all reports byte-identical (%d bytes)\n",
		*clients, retries, elapsed.Seconds(), len(results[0].report))
	if *stream {
		fmt.Printf("visaload: stream replays identical (%d bytes)\n", len(results[0].replay))
	}
}

// loadPlan reads a spec file, or builds the default two-bench comparison
// plan small enough to run in bulk.
func loadPlan(path string) (rt.PlanSpec, error) {
	if path == "" {
		return rt.PlanSpec{
			Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "visaload",
			Jobs: []rt.JobSpec{
				{Version: rt.SpecVersion, Bench: "cnt",
					Config: rt.ConfigSpec{Instances: 5, Label: "visaload/cnt"}},
				{Version: rt.SpecVersion, Bench: "srt",
					Config: rt.ConfigSpec{Instances: 5, Label: "visaload/srt"}},
			},
		}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return rt.PlanSpec{}, err
	}
	spec, err := rt.DecodePlanSpec(data)
	if err != nil {
		return rt.PlanSpec{}, err
	}
	return spec, spec.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visaload:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"visa/internal/fault"
)

// The chaos campaign: chaosPlans plans of chaosJobs jobs each, against a
// journaled daemon SIGKILLed chaosKills times at points drawn from
// chaosSeed.
const (
	chaosKills = 3
	chaosSeed  = 1
	chaosPlans = 4
	chaosJobs  = 3
)

// TestChaosCampaign is the crash-safety acceptance test. It runs the
// campaign once uninterrupted at -j 1 for reference, then against a
// journaled daemon that is SIGKILLed at seeded points (how many plans to
// submit and how many stream events to read before each kill) and
// restarted at a rotating -j. Every plan must then finish with the
// reference report and report hash, and every job whose event log
// survived in full must replay byte-identically: a crash is
// observationally equivalent to a slow response.
func TestChaosCampaign(t *testing.T) {
	bodies := make([]string, chaosPlans)
	for p := range bodies {
		bodies[p] = planJSON(fmt.Sprintf("chaos-p%d", p), chaosJobs)
	}

	type result struct {
		report, hash string
		replay       []byte
	}
	ref := startVisad(t, "-j", "1").client("chaos")
	want := make([]result, chaosPlans)
	for p, body := range bodies {
		id := submit(t, ref, body)
		r := replay(t, ref, id)
		jr := wait(t, ref, id)
		want[p] = result{jr.Report, jr.ReportHash, r}
	}

	journal := filepath.Join(t.TempDir(), "visad.wal")
	parallelism := []string{"2", "4", "3", "1"}
	d := startVisad(t, "-j", parallelism[0], "-journal", journal)
	var ids []string // plan index -> job id
	for k := uint64(0); k < chaosKills; k++ {
		// Kill point k: submit 1..2 more plans, then read 1..8 events of
		// the newest job's stream.
		for s := 1 + fault.DeriveSeed(chaosSeed, k, 0)%2; s > 0 && len(ids) < chaosPlans; s-- {
			ids = append(ids, submit(t, d.client("chaos"), bodies[len(ids)]))
		}
		events := 1 + int(fault.DeriveSeed(chaosSeed, k, 1)%8)
		readEvents(d, ids[len(ids)-1], events)
		d.kill()
		jn := parallelism[(k+1)%uint64(len(parallelism))]
		t.Logf("kill %d/%d after %d plans, %d events; restart at -j %s", k+1, chaosKills, len(ids), events, jn)
		d = startVisad(t, "-j", jn, "-journal", journal)
	}
	c := d.client("chaos")
	for len(ids) < chaosPlans {
		ids = append(ids, submit(t, c, bodies[len(ids)]))
	}

	full := 0
	for p, id := range ids {
		jr, err := c.Wait(id)
		if err != nil {
			t.Errorf("plan %d (%s): %v", p, id, err)
			continue
		}
		if jr.Report != want[p].report {
			t.Errorf("plan %d (%s): report differs from uninterrupted run", p, id)
		}
		if jr.ReportHash != want[p].hash {
			t.Errorf("plan %d (%s): report hash %q, want %q", p, id, jr.ReportHash, want[p].hash)
		}
		// A job rehydrated from the journal streams only report and done,
		// already hash-checked; a full log must replay byte-identically.
		r, isFull, err := c.Replay(id)
		if err != nil {
			t.Errorf("plan %d (%s): %v", p, id, err)
			continue
		}
		if isFull {
			full++
			if !bytes.Equal(r, want[p].replay) {
				t.Errorf("plan %d (%s): plan-order replay differs from uninterrupted run", p, id)
			}
		}
	}
	if !t.Failed() {
		t.Logf("%d/%d plans byte-identical across %d SIGKILLs (%d full replays matched)",
			len(ids), chaosPlans, chaosKills, full)
	}
}

// readEvents reads the job's stream until n events have arrived or the
// stream ends, and leaves the rest of the read running: the daemon is
// about to be killed under it.
func readEvents(d *daemon, id string, n int) {
	tap := &lineTap{left: n, reached: make(chan struct{})}
	c := d.client("chaos")
	c.HTTP = &http.Client{Transport: tap}
	ended := make(chan struct{})
	go func() {
		c.Replay(id)
		close(ended)
	}()
	select {
	case <-tap.reached:
	case <-ended:
	}
}

// lineTap is a one-request transport that closes reached once left
// newlines of the response body have been read.
type lineTap struct {
	io.ReadCloser // the tapped body
	left          int
	reached       chan struct{}
}

func (l *lineTap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		l.ReadCloser, resp.Body = resp.Body, l
	}
	return resp, err
}

func (l *lineTap) Read(p []byte) (int, error) {
	n, err := l.ReadCloser.Read(p)
	if l.left > 0 {
		if l.left -= bytes.Count(p[:n], []byte("\n")); l.left <= 0 {
			close(l.reached)
		}
	}
	return n, err
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"visa/internal/serve"
)

// e2eTimeout bounds every client call of these tests: submit backoff and
// each wait for a job.
const e2eTimeout = 5 * time.Minute

// The daemon under test is built once per test binary, into binDir.
var (
	buildOnce sync.Once
	binDir    string
	visadBin  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildVisad compiles the daemon on first use, with -race when the test
// binary itself is race-built, and returns its path. Tests skip when the
// go toolchain is unavailable.
func buildVisad(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "visad-e2e"); buildErr != nil {
			return
		}
		visadBin = filepath.Join(binDir, "visad")
		args := []string{"build", "-o", visadBin}
		if raceBuild {
			args = append(args, "-race")
		}
		if out, err := exec.Command(goBin, append(args, ".")...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return visadBin
}

// daemon is one running visad child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *stderrLog
	exited chan struct{} // closed once the process is reaped
	err    error         // its exit status, set before exited closes
}

// stderrLog keeps the child's stderr and hands over the address of its
// "listening on" line, once.
type stderrLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan<- string // nil once sent
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil && l.addr != nil {
		l.addr <- string(m[1])
		l.addr = nil
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startVisad launches the daemon on an ephemeral port and waits until
// /v1/healthz answers "status":"ok". The test's cleanup kills it.
func startVisad(t *testing.T, extra ...string) *daemon {
	t.Helper()
	addr := make(chan string, 1)
	d := &daemon{log: &stderrLog{addr: addr}, exited: make(chan struct{})}
	d.cmd = exec.Command(buildVisad(t), append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(d.kill)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		t.Fatalf("visad exited before listening: %v\n%s", d.err, d.log)
	case <-time.After(30 * time.Second):
		t.Fatal("visad did not report a listen address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := health(d.base)
		if err == nil && h.Status == "ok" {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("visad not healthy: %+v, %v", h, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it: a crash, no drain.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// terminate sends SIGTERM and requires a clean drain.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.drained(t)
}

// drained waits for the daemon to exit after SIGTERM and requires exit
// status 0 and the drain confirmation on stderr.
func (d *daemon) drained(t *testing.T) {
	t.Helper()
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		t.Fatal("visad did not exit after SIGTERM")
	}
	if d.err != nil {
		t.Errorf("visad exit: %v\nstderr:\n%s", d.err, d.log)
	}
	if !strings.Contains(d.log.String(), "drained") {
		t.Errorf("stderr missing drain confirmation:\n%s", d.log)
	}
}

func (d *daemon) client(id string) *serve.Client {
	return &serve.Client{Base: d.base, ID: id, Deadline: time.Now().Add(e2eTimeout)}
}

// health reads the daemon's /v1/healthz document.
func health(base string) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// planJSON is a custom plan called name of jobs cnt jobs, labelled
// name/cnt<i>.
func planJSON(name string, jobs int) string {
	var specs []string
	for i := 0; i < jobs; i++ {
		specs = append(specs, fmt.Sprintf(
			`{"version":1,"bench":"cnt","config":{"instances":3,"label":"%s/cnt%d"}}`, name, i))
	}
	return fmt.Sprintf(`{"version":1,"kind":"custom","name":%q,"jobs":[%s]}`,
		name, strings.Join(specs, ","))
}

func submit(t *testing.T, c *serve.Client, body string) string {
	t.Helper()
	id, _, err := c.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// wait requires the job to finish done.
func wait(t *testing.T, c *serve.Client, id string) serve.JobResponse {
	t.Helper()
	jr, err := c.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

func replay(t *testing.T, c *serve.Client, id string) []byte {
	t.Helper()
	r, _, err := c.Replay(id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTwoDaemonsDifferentParallelismIdentical is the cross-instance
// determinism e2e: two daemons with -j 1 and -j 4 serve the same plan; the
// reports and the plan-order stream replays are byte-identical.
func TestTwoDaemonsDifferentParallelismIdentical(t *testing.T) {
	body := planJSON("e2e", 4)
	type out struct {
		report string
		replay []byte
	}
	run := func(j string) out {
		c := startVisad(t, "-j", j).client("e2e")
		id := submit(t, c, body)
		r := replay(t, c, id)
		return out{report: wait(t, c, id).Report, replay: r}
	}
	serial := run("1")
	parallel := run("4")
	if serial.report != parallel.report {
		t.Errorf("reports differ between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s",
			serial.report, parallel.report)
	}
	if !bytes.Equal(serial.replay, parallel.replay) {
		t.Errorf("plan-order stream replays differ between -j 1 and -j 4")
	}
	if serial.report == "" || len(serial.replay) == 0 {
		t.Error("empty outputs")
	}
}

// TestSIGTERMDrains: on SIGTERM the daemon finishes the in-flight job
// (observed through its event stream), answers new submissions with 503,
// and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	d := startVisad(t, "-j", "2")
	c := d.client("drain")
	id := submit(t, c, planJSON("e2e", 2))
	// Hold the stream open across the drain: it must still deliver the
	// full event log, proving the job ran to completion.
	type streamed struct {
		replay []byte
		full   bool
		err    error
	}
	streamDone := make(chan streamed, 1)
	go func() {
		r, full, err := c.Replay(id)
		streamDone <- streamed{r, full, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the stream attach and the job start

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDraining(t, d.base)
	// While draining, new submissions are refused with 503. A transport
	// error means the listener is already gone: no admission either.
	_, _, err := d.client("late").Submit([]byte(planJSON("e2e", 1)))
	var se *serve.StatusError
	if err == nil {
		t.Error("submit during drain was admitted")
	} else if errors.As(err, &se) && se.Code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: status %d, want 503", se.Code)
	}

	select {
	case s := <-streamDone:
		if s.err != nil || !s.full || !bytes.Contains(s.replay, []byte(`"type":"report"`)) {
			t.Errorf("drained stream incomplete (full=%v, err=%v):\n%s", s.full, s.err, s.replay)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("stream did not complete during drain")
	}
	d.drained(t)
}

// waitDraining polls /v1/healthz until the daemon reports it is draining
// or no longer accepts connections. Signal delivery is asynchronous, so a
// request sent right after SIGTERM can still reach a daemon that has not
// started its drain.
func waitDraining(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		// An error means the listener is closing: the drain has begun.
		if h, err := health(base); err != nil || h.Draining {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon did not report draining after SIGTERM")
}

// hashRE is the shape of a report hash: SHA-256 in lowercase hex.
var hashRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// TestCrashRecoveryByteIdentical is the crash-safety e2e: SIGKILL the
// daemon right after a journaled submission, restart on the same journal
// at a different -j, and the recovered job's report is byte-identical to
// an uninterrupted run — a crash is observationally a slow response. The
// recovered daemon still drains cleanly on SIGTERM.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	body := planJSON("e2e", 4)

	// Reference: uninterrupted run, no journal, -j 1.
	ref := startVisad(t, "-j", "1").client("crash")
	want := wait(t, ref, submit(t, ref, body))
	if want.Report == "" {
		t.Fatal("reference run has an empty report")
	}

	journal := filepath.Join(t.TempDir(), "visad.wal")
	d1 := startVisad(t, "-j", "1", "-journal", journal)
	id := submit(t, d1.client("crash"), body)
	// SIGKILL immediately: the admit record is durable (the 202 implies a
	// synced append), the completion almost certainly is not.
	d1.kill()

	// Restart on the same journal at a different parallelism.
	d2 := startVisad(t, "-j", "4", "-journal", journal)
	if !strings.Contains(d2.log.String(), "journal "+journal) {
		t.Errorf("restart stderr missing recovery summary:\n%s", d2.log)
	}
	jr := wait(t, d2.client("crash"), id)
	if !jr.Recovered {
		t.Error("recovered job not flagged recovered")
	}
	if jr.Report != want.Report {
		t.Errorf("recovered report differs from uninterrupted run:\n--- recovered\n%s\n--- reference\n%s",
			jr.Report, want.Report)
	}
	if !hashRE.MatchString(jr.ReportHash) || jr.ReportHash != want.ReportHash {
		t.Errorf("report hash %q, want %q (64 lowercase hex)", jr.ReportHash, want.ReportHash)
	}

	// Third start: the completion is journaled now, so the job rehydrates
	// done without re-running, report intact.
	d2.kill()
	d3 := startVisad(t, "-j", "2", "-journal", journal)
	jr3 := wait(t, d3.client("crash"), id)
	if jr3.Report != want.Report || !jr3.Recovered {
		t.Errorf("rehydrated job wrong: recovered=%v reportMatch=%v",
			jr3.Recovered, jr3.Report == want.Report)
	}
	d3.terminate(t)
}

// TestVisaloadAgainstDaemon drives the load generator at a live daemon —
// the N-concurrent-clients byte-identical acceptance check, binary to
// binary — then checks the completion counter and a clean drain.
func TestVisaloadAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips the load sweep")
	}
	const clients = 50
	d := startVisad(t, "-j", "2", "-workers", "4", "-queue", "64")
	loadBin := filepath.Join(t.TempDir(), "visaload")
	if out, err := exec.Command("go", "build", "-o", loadBin, "../visaload").CombinedOutput(); err != nil {
		t.Fatalf("go build visaload: %v\n%s", err, out)
	}
	cmd := exec.Command(loadBin, "-addr", d.base, "-clients", fmt.Sprint(clients), "-stream", "-timeout", "4m")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("visaload: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("byte-identical")) {
		t.Errorf("visaload output missing confirmation:\n%s", out)
	}

	resp, err := http.Get(d.base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var samples []serve.MetricSample
	err = json.NewDecoder(resp.Body).Decode(&samples)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	completed := -1.0
	for _, s := range samples {
		if s.Name == "serve.jobs.completed" {
			completed = s.Value
		}
	}
	if completed != clients {
		t.Errorf("serve.jobs.completed = %v, want %d", completed, clients)
	}
	d.terminate(t)
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// buildVisasim compiles the command once per test binary and returns its
// path. Tests needing the go toolchain skip when it is unavailable.
func buildVisasim(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "visasim-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "visasim")
		if out, err := exec.Command(goBin, "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = errors.New("go build: " + err.Error() + "\n" + string(out))
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

// run executes the binary and returns its stdout and exit code.
func run(t *testing.T, bin string, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return stdout.Bytes(), 0
	case errors.As(err, &ee):
		return stdout.Bytes(), ee.ExitCode()
	}
	t.Fatalf("visasim %v: %v\n%s", args, err, stderr.Bytes())
	return nil, 0
}

// TestBenchAllGolden pins `-bench all` against the recorded report and
// metrics stream, and checks the README claim that both are byte-identical
// for -j 1 and -j 8. The only stdout difference a -metrics run adds is the
// trailing line naming the metrics file.
func TestBenchAllGolden(t *testing.T) {
	bin := buildVisasim(t)
	wantOut, err := os.ReadFile("testdata/bench_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics, err := os.ReadFile("testdata/bench_all.jsonl.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, code := run(t, bin, "-bench", "all", "-j", "8")
	if code != 0 || !bytes.Equal(out, wantOut) {
		t.Fatalf("-bench all -j 8: exit %d, stdout differs from golden:\n%s", code, out)
	}
	for _, j := range []string{"1", "8"} {
		path := filepath.Join(t.TempDir(), "m.jsonl")
		out, code := run(t, bin, "-bench", "all", "-j", j, "-metrics", path)
		want := string(wantOut) + "metrics: 173 records -> " + path + "\n"
		if code != 0 || string(out) != want {
			t.Errorf("-j %s -metrics: exit %d, stdout differs from golden:\n%s", j, code, out)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantMetrics) {
			t.Errorf("-j %s: metrics stream differs from golden", j)
		}
	}
}

// TestTraceGolden pins the -trace file of one fault-injected benchmark and
// the run's stdout, whose only addition is the trailing line naming the
// trace file.
func TestTraceGolden(t *testing.T) {
	bin := buildVisasim(t)
	wantOut, err := os.ReadFile("testdata/fft_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantTrace, err := os.ReadFile("testdata/fft_trace.json.golden")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	out, code := run(t, bin, "-bench", "fft", "-proc", "simple", "-runs", "2",
		"-inject", "mem-jitter:500:64:3", "-trace", path)
	want := string(wantOut) + "trace: 27 events -> " + path + " (load at ui.perfetto.dev)\n"
	if code != 0 || string(out) != want {
		t.Fatalf("-trace: exit %d, stdout differs from golden:\n%s", code, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTrace) {
		t.Error("trace file differs from golden")
	}
}

// TestExitCodes: an unknown benchmark is a load failure (1), and so is
// -trace over more than one benchmark; naming no program is a usage
// error (2).
func TestExitCodes(t *testing.T) {
	bin := buildVisasim(t)
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-bench", "nope"}, 1},
		{[]string{"-bench", "fft,nope"}, 1},
		{[]string{"-conform", "-bench", "nope"}, 1},
		{[]string{"-bench", "fft,cnt", "-trace", filepath.Join(t.TempDir(), "x")}, 1},
		{nil, 2},
		{[]string{"-plan", "spec.json"}, 2},
	} {
		if _, code := run(t, bin, c.args...); code != c.want {
			t.Errorf("visasim %v: exit %d, want %d", c.args, code, c.want)
		}
	}
}

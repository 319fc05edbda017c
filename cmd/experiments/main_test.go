package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildExperiments compiles the command once per test binary into a temp
// dir and returns its path. Tests needing the go toolchain skip when it is
// unavailable in the environment.
func buildExperiments(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	cmd := exec.Command(goBin, "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCPUProfileLoadable: -cpuprofile must produce a profile `go tool
// pprof -top` accepts — the acceptance check for the profiling hooks.
func TestCPUProfileLoadable(t *testing.T) {
	bin := buildExperiments(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")

	run := exec.Command(bin, "-table3", "-cpuprofile", cpu, "-memprofile", mem)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("experiments -table3: %v\n%s", err, out)
	}
	goBin, _ := exec.LookPath("go")
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
		top := exec.Command(goBin, "tool", "pprof", "-top", p)
		out, err := top.CombinedOutput()
		if err != nil {
			t.Errorf("go tool pprof -top %s: %v\n%s", p, err, out)
		}
	}
}

// TestCoalescedCampaignsByteIdentical: the acceptance criterion at the
// binary level — safety and conform campaigns and the Figure 4 plan, whose
// counters always coalesce, produce byte-identical stdout and metrics for
// -j 1 and -j 8, and each metrics stream matches its SHA-256 digest in
// testdata/metrics.sha256. The Figure 4 stream carries the switch-drain
// and instance-latency kind:"hist" records. The digests pin the stream's
// bytes across changes; after an intended format change, regenerate them
// with `sha256sum` over the streams the same arguments write.
func TestCoalescedCampaignsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips the campaign sweep")
	}
	bin := buildExperiments(t)
	digests := readDigests(t, filepath.Join("testdata", "metrics.sha256"))
	campaigns := []struct {
		name string
		args []string
	}{
		{"safety.jsonl", []string{"-campaign", "safety", "-rates", "250", "-faults", "fetch-stall", "-n", "12"}},
		{"conform.jsonl", []string{"-campaign", "conform", "-n", "4"}},
		{"fig4.jsonl", []string{"-fig4", "-n", "20"}},
	}
	for _, c := range campaigns {
		outs := map[string][]byte{}
		metrics := map[string][]byte{}
		for _, j := range []string{"1", "8"} {
			dir := t.TempDir()
			args := append([]string{"-j", j, "-metrics", dir}, c.args...)
			cmd := exec.Command(bin, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s -j %s: %v\n%s", c.name, j, err, stderr.String())
			}
			m, err := os.ReadFile(filepath.Join(dir, c.name))
			if err != nil {
				t.Fatal(err)
			}
			outs[j] = stdout.Bytes()
			metrics[j] = m
		}
		if !bytes.Equal(outs["1"], outs["8"]) {
			t.Errorf("%s: stdout differs between -j 1 and -j 8", c.name)
		}
		if !bytes.Equal(metrics["1"], metrics["8"]) {
			t.Errorf("%s: metrics differ between -j 1 and -j 8", c.name)
		}
		if len(metrics["1"]) == 0 {
			t.Errorf("%s: empty metrics stream", c.name)
		}
		if !bytes.Contains(metrics["1"], []byte(`"kind":"counter.flush"`)) {
			t.Errorf("%s: no counter.flush records in coalesced stream", c.name)
		}
		sum := sha256.Sum256(metrics["1"])
		if got, want := hex.EncodeToString(sum[:]), digests[c.name]; got != want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, want)
		}
	}
}

// readDigests parses a `sha256sum` listing into file name → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = sum
	}
	return out
}

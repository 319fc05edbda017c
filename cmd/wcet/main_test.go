package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/rt"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// buildWCET compiles the command once per test binary and returns its
// path. Tests needing the go toolchain skip when it is unavailable.
func buildWCET(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wcet-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "wcet")
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
	t.Fatalf("wcet %v: %v\n%s", args, err, stderr.Bytes())
	return nil, 0
}

// TestLintGolden pins `-lint all` and `-lint -v all` on the six clean C-lab
// benchmarks against their recorded reports.
func TestLintGolden(t *testing.T) {
	bin := buildWCET(t)
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"testdata/lint_all.golden", []string{"-lint", "all"}},
		{"testdata/lint_v_all.golden", []string{"-lint", "-v", "all"}},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		out, code := run(t, bin, c.args...)
		if code != 0 || !bytes.Equal(out, want) {
			t.Errorf("wcet %v: exit %d, stdout differs from %s:\n%s", c.args, code, c.golden, out)
		}
	}
}

// TestLintExitCodes pins the -lint exit contract: 0 clean, 1 for a finding
// or a load failure, 2 for a usage error.
func TestLintExitCodes(t *testing.T) {
	bin := buildWCET(t)
	dir := t.TempDir()
	understated := filepath.Join(dir, "understated.c")
	src := `
int acc = 0;
void main() {
	int i;
	for __bound(3) (i = 0; i < 10; i = i + 1) {
		acc = acc + i;
	}
	__out(acc);
}
`
	if err := os.WriteFile(understated, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out, code := run(t, bin, "-lint", "fft", understated)
	if code != 1 || !strings.Contains(string(out), "  BOUND ") || !strings.Contains(string(out), "UNSOUND") {
		t.Errorf("understated bound: exit %d, want 1 with a BOUND line:\n%s", code, out)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-lint", "fft"}, 0},
		{[]string{"-lint"}, 2},
		{[]string{"-lint", "-zz", "all"}, 2},
		{[]string{"-lint", filepath.Join(dir, "missing.c")}, 1},
	} {
		if _, code := run(t, bin, c.args...); code != c.want {
			t.Errorf("wcet %v: exit %d, want %d", c.args, code, c.want)
		}
	}
}

// TestBoundsMatchTable3: for every C-lab benchmark, the per-sub-task
// bounds wcet prints at 1000 MHz, and the table a -bundle carries, are the
// harness's padded WCET table (rt.GetSetup, Table 3) — one recipe, D-cache
// pad included — and the bundle carries the analyzed program unchanged.
func TestBoundsMatchTable3(t *testing.T) {
	bin := buildWCET(t)
	dir := t.TempDir()
	for _, b := range clab.All() {
		s, err := rt.GetSetup(b)
		if err != nil {
			t.Fatal(err)
		}
		last := len(s.Table.Points) - 1
		if s.Table.Points[last].FMHz != 1000 {
			t.Fatalf("top operating point is %d MHz, want 1000", s.Table.Points[last].FMHz)
		}
		out, code := run(t, bin, b.Name)
		if code != 0 {
			t.Fatalf("wcet %s: exit %d\n%s", b.Name, code, out)
		}
		var got []int64
		for _, line := range strings.Split(string(out), "\n") {
			var k int
			var c int64
			if n, _ := fmt.Sscanf(line, "  sub-task %d: %d cycles", &k, &c); n == 2 {
				got = append(got, c)
			}
		}
		if !reflect.DeepEqual(got, s.Table.Cycles[last]) {
			t.Errorf("%s: wcet prints %v, Table 3 has %v", b.Name, got, s.Table.Cycles[last])
		}

		path := filepath.Join(dir, b.Name+".bundle")
		if out, code := run(t, bin, "-bundle", path, b.Name); code != 0 {
			t.Fatalf("wcet -bundle %s: exit %d\n%s", b.Name, code, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := core.DecodeBundle(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bundle.Table, s.Table) {
			t.Errorf("%s: bundled table differs from Table 3's", b.Name)
		}
		if !slices.Equal(bundle.Program.Code, s.Prog.Code) {
			t.Errorf("%s: bundled program differs from the analyzed one", b.Name)
		}
	}
}

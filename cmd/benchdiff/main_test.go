package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a one-workload BENCHMARK.json: the traced workload with one
// end-to-end metric of each direction.
func testSpec(t *testing.T) *spec {
	t.Helper()
	var sp spec
	err := json.Unmarshal([]byte(`{
		"command": ["true"], "run_seconds": 1,
		"workloads": [{"name": "eval-steady"}],
		"end_to_end": [
			{"name": "ops_per_s", "better": "higher", "bound": 0.25},
			{"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
		]}`), &sp)
	if err != nil {
		t.Fatal(err)
	}
	return &sp
}

// resultLine is a benchmark result line with the given metrics.
func resultLine(attempted, failed int, metrics map[string]float64) []byte {
	m := map[string]map[string]float64{}
	for name, v := range metrics {
		m[name] = map[string]float64{"value": v}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": failed, "metrics": m,
	})
	return b
}

// synth builds a record of five untraced and five traced eval-steady runs.
// Run i reports ops_per_s ops[i], latency_p50_ms 10, failed[i] of 100
// attempted operations, and rung ns[i] on every kernel rung plus an
// informational ladder metric. A nil slice leaves its metrics out.
func synth(t *testing.T, ops, ns []float64, failed []int) []run {
	t.Helper()
	var runs []run
	for i := 0; i < seeds; i++ {
		e2e := map[string]float64{"latency_p50_ms": 10}
		if ops != nil {
			e2e["ops_per_s"] = ops[i]
		}
		f := 0
		if failed != nil {
			f = failed[i]
		}
		ladder := map[string]float64{}
		if ns != nil {
			for _, r := range rungs {
				ladder[r] = ns[i]
			}
			ladder["cache.access_ns"] = ns[i]
		}
		runs = append(runs,
			run{Workload: tracedWorkload, Seed: i + 1, Result: resultLine(100, f, e2e)},
			run{Workload: tracedWorkload, Seed: i + 1, Trace: true, Result: resultLine(100, 0, ladder)})
	}
	for i := range runs {
		if err := runs[i].decode(); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * f
	}
	return out
}

// scaleInfo multiplies the informational ladder metric of runs by f.
func scaleInfo(runs []run, f float64) []run {
	for _, r := range runs {
		if m, ok := r.res.Metrics["cache.access_ns"]; ok {
			m.Value *= f
			r.res.Metrics["cache.access_ns"] = m
		}
	}
	return runs
}

func TestDiffGate(t *testing.T) {
	tight := []float64{10, 10.1, 10, 9.9, 10}
	wide := []float64{7, 8, 10, 12, 13}
	ops := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name          string
		old, new      []run
		fail          bool
		wantInPrinted string
	}{
		{"ns regression fails", synth(t, ops, tight, nil), synth(t, ops, scale(tight, 1.3), nil), true, "REGRESSED"},
		{"regression inside the spread is unresolved", synth(t, ops, wide, nil), synth(t, ops, scale(wide, 1.3), nil), false, "unresolved"},
		{"improvement passes", synth(t, ops, tight, nil), synth(t, ops, scale(tight, 0.7), nil), false, ""},
		{"within tolerance passes", synth(t, ops, tight, nil), synth(t, ops, scale(tight, 1.15), nil), false, ""},
		{"unpinned regression passes", synth(t, ops, tight, nil), scaleInfo(synth(t, ops, tight, nil), 5), false, "cache.access_ns"},
		{"end-to-end past its bound fails", synth(t, ops, tight, nil), synth(t, scale(ops, 0.7), tight, nil), true, "REGRESSED"},
		{"end-to-end improvement passes", synth(t, ops, tight, nil), synth(t, scale(ops, 1.5), tight, nil), false, ""},
		{"higher failure fraction fails", synth(t, ops, tight, nil), synth(t, ops, tight, []int{0, 0, 1, 0, 0}), true, "1/1000"},
		{"missing workload fails", synth(t, ops, tight, nil), nil, true, ""},
	}
	sp := testSpec(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			failures := diff(&out, sp, tc.old, tc.new)
			if got := len(failures) > 0; got != tc.fail {
				t.Errorf("failures = %v, want fail=%v\n%s", failures, tc.fail, out.String())
			}
			if !strings.Contains(out.String(), tc.wantInPrinted) {
				t.Errorf("output lacks %q:\n%s", tc.wantInPrinted, out.String())
			}
		})
	}
}

func TestDiffMissingPinnedKernel(t *testing.T) {
	old := synth(t, []float64{1, 1, 1, 1, 1}, []float64{10, 10, 10, 10, 10}, nil)
	failures := diff(io.Discard, testSpec(t), old, synth(t, []float64{1, 1, 1, 1, 1}, nil, nil))
	if len(failures) != len(rungs) {
		t.Fatalf("failures = %v, want one per rung", failures)
	}
	for i, f := range failures {
		if !strings.Contains(f, rungs[i]) || !strings.Contains(f, "missing") {
			t.Errorf("failure %q does not name missing rung %s", f, rungs[i])
		}
	}
}

// fakeRuns answers every run with a correct result, except that the run of
// badWorkload reports correct:false.
func fakeRuns(badWorkload string, calls *int) runFunc {
	return func(workload string, seed int, trace bool) ([]byte, error) {
		*calls++
		if workload == badWorkload {
			return []byte(`{"correct":false,"attempted":1,"failed":0,"metrics":{}}`), nil
		}
		return resultLine(1, 0, map[string]float64{"ops_per_s": float64(seed)}), nil
	}
}

func TestRecord(t *testing.T) {
	sp := testSpec(t)
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	calls := 0
	if err := record(sp, path, fakeRuns("", &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 2*seeds {
		t.Errorf("record made %d runs, want %d", calls, 2*seeds)
	}
	runs, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*seeds || runs[0].Seed != 1 || runs[0].Trace || !runs[1].Trace {
		t.Errorf("recorded runs = %+v", runs)
	}
	// Result lines are stored verbatim.
	if want := resultLine(1, 0, map[string]float64{"ops_per_s": 1}); !bytes.Equal(runs[0].Result, want) {
		t.Errorf("stored result %s, want %s", runs[0].Result, want)
	}
}

func TestRecordRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := record(testSpec(t), path, fakeRuns("", &calls))
	if err == nil || !strings.Contains(err.Error(), "exists") {
		t.Errorf("record over an existing file: err %v", err)
	}
	if calls != 0 {
		t.Errorf("record ran %d benchmarks before refusing", calls)
	}
	if b, _ := os.ReadFile(path); string(b) != "keep" {
		t.Errorf("existing record overwritten: %q", b)
	}
}

func TestRecordRefusesIncorrectRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	calls := 0
	err := record(testSpec(t), path, fakeRuns(tracedWorkload, &calls))
	if err == nil || !strings.Contains(err.Error(), "correct:false") {
		t.Errorf("record with a correct:false run: err %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("record wrote %s despite an incorrect run", path)
	}
}

func TestLatestTwo(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_7.json", "BENCH_10.json", "README.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldPath, newPath, err := latestTwo(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric, not lexicographic: 10 is newer than 7.
	if filepath.Base(oldPath) != "BENCH_7.json" || filepath.Base(newPath) != "BENCH_10.json" {
		t.Errorf("latestTwo = %s, %s; want BENCH_7.json, BENCH_10.json", oldPath, newPath)
	}

	if _, _, err := latestTwo(t.TempDir()); err == nil {
		t.Error("latestTwo on empty dir succeeded, want error")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	ok := `{"correct":true,"attempted":1,"failed":0,"metrics":{}}`
	cases := map[string]string{
		"empty.json":     `[]`,
		"old.json":       `[{"name":"BenchmarkFoo","ns_per_op":1}]`,
		"dup.json":       fmt.Sprintf(`[{"workload":"a","seed":1,"result":%s},{"workload":"a","seed":1,"result":%s}]`, ok, ok),
		"incorrect.json": `[{"workload":"a","seed":1,"result":{"correct":false,"metrics":{}}}]`,
		"noresult.json":  `[{"workload":"a","seed":1}]`,
	}
	for name, body := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(p); err == nil {
			t.Errorf("load(%s) succeeded, want error", name)
		}
	}
}

// TestQuartiles pins the exclusive method bench/stats.go uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

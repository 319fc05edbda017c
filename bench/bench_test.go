package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"visa/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 0},
		{n: 19},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 39, p: 50, beyond: 19, ok: true},
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 99, p: 75, beyond: 24, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 800, p: 95, beyond: 40, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}

// TestQuartilesMatchPython pins the calibration quartiles to Python's
// statistics.quantiles(values, n=4), the method the bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 30, 20}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestBenchmarkJSONMatchesCatalog checks every name against the metric-name
// rule and checks that BENCHMARK.json declares exactly the workloads and
// metrics (with units and directions) the benchmark emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	var got []string
	for _, w := range b.Workloads {
		check(w.Name)
		got = append(got, w.Name)
	}
	if want := workloadNames(); strings.Join(got, ", ") != want {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %s", got, want)
	}

	declared := func(kind string, defs []metricDef, n int, at func(i int) metricDef) {
		if n != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, catalog.go %d", kind, n, len(defs))
		}
		for i := 0; i < n && i < len(defs); i++ {
			m := at(i)
			check(m.Name)
			if m != defs[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog.go %+v", kind, i, m, defs[i])
			}
		}
	}
	declared("end_to_end", endToEnd, len(b.EndToEnd), func(i int) metricDef {
		m := b.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		return metricDef{m.Name, m.Unit, m.Better}
	})
	declared("per_layer", perLayer, len(b.PerLayer), func(i int) metricDef {
		m := b.PerLayer[i]
		return metricDef{m.Name, m.Unit, m.Better}
	})
}

// TestFailureAccounting drives the closed-loop client against a server that
// refuses (429), errors (500), breaks the stream, and fails the job: every
// operation is attempted and counted failed, none completes.
func TestFailureAccounting(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		n := posts.Add(1)
		switch n % 4 {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.SubmitResponse{ID: strconv.FormatInt(n, 10), Status: serve.StatusQueued}) //visa:allow(errlint): a broken body fails the client's decode, which the test counts
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, req *http.Request) {
		n, _ := strconv.ParseInt(req.PathValue("id"), 10, 64) //visa:allow(errlint): ids come from the POST handler above
		if n%4 == 3 {
			http.Error(w, "stream lost", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"type":"job","index":0,"ok":false,"error":"injected"}`)
		fmt.Fprintln(w, `{"type":"done","status":"failed","error":"injected"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := config{workload: "serve-closedloop", seed: 1, quick: true}
	s := newServeClosedLoop(cfg).(*serveClosedLoop)
	s.svc = &service{base: ts.URL, client: ts.Client()}
	r := &runner{cfg: cfg}
	r.startPhase(s.window())
	s.client(r, 0, now().Add(100*time.Millisecond))

	if r.attempted < 4 || r.failed != r.attempted || len(r.latencies) != 0 || len(r.windows) != 0 {
		t.Fatalf("attempted %d, failed %d, completed %d, windows %d: want every attempt failed",
			r.attempted, r.failed, len(r.latencies), len(r.windows))
	}
	failures := strings.Join(r.failures, "\n")
	for _, want := range []string{"429", "500", "stream", "injected"} {
		if !strings.Contains(failures, want) {
			t.Errorf("no failure mentions %q:\n%s", want, failures)
		}
	}
	if _, err := r.opsPerSecond(); err == nil {
		t.Error("opsPerSecond succeeded with no completed operation")
	}
}

// quickRun runs one workload at tiny sizes with goldens gold.
func quickRun(t *testing.T, name string, trace bool, gold *checker) *result {
	t.Helper()
	newW, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	dir := t.TempDir()
	cfg := config{workload: name, seed: 7, seconds: 200 * time.Millisecond, trace: trace,
		quick: true, setups: 1, workDir: dir, spans: dir + "/spans.json"}
	res, err := run(cfg, newW, gold)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res
}

// TestQuickSmoke runs every workload untraced and traced at tiny sizes: each
// must be correct, emit exactly the metrics BENCHMARK.json names (run
// checks the set), and write a result line that parses back.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			gold, err := loadGoldens(false)
			if err != nil {
				t.Fatal(err)
			}
			res := quickRun(t, w.name, trace, gold)
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, attempted %d, mismatches %v",
					w.name, trace, res.Correct, res.Attempted, gold.mismatches())
			}
			for _, m := range res.Metrics {
				if math.IsNaN(m.Value) || (!trace && m.Value <= 0) {
					t.Errorf("%s (trace %v): metric %s = %v", w.name, trace, m.Name, m.Value)
				}
			}
			var out strings.Builder
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			if _, err := parseResultLine(lastLine([]byte(out.String()))); err != nil {
				t.Errorf("%s (trace %v): %v", w.name, trace, err)
			}
		}
	}
}

// TestCorruptGoldenFails flips one pinned report hash: the run must report
// itself incorrect and exit non-zero.
func TestCorruptGoldenFails(t *testing.T) {
	gold, err := loadGoldens(false)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("quick/eval/fig2/i%d", quickEvalInstances)
	if _, ok := gold.want[key]; !ok {
		t.Fatalf("no golden %s", key)
	}
	gold.want[key] = strings.Repeat("0", 64)
	res := quickRun(t, "eval-steady", false, gold)
	if res.Correct || exitCode(res) == 0 {
		t.Fatalf("corrupted golden: correct %v, exit code %d", res.Correct, exitCode(res))
	}
	if mm := gold.mismatches(); len(mm) != 1 || !strings.Contains(mm[0], key) {
		t.Errorf("mismatches %v, want exactly the corrupted %s", mm, key)
	}
}

// Command bench is the repository benchmark: one workload per invocation,
// measured end to end in host time, with every output checked against
// pinned goldens or an independent recomputation.
//
//	go run . -workload eval-steady -seed 1 -seconds 15 -trace 0
//	go run . -workload serve-closedloop -trace 1 -spans spans.json
//	go run . -workload wcet-analysis -repeat 5
//
// bench/run.sh builds the benchmark into .bench_build/ and runs it from the
// repository root; that is the command BENCHMARK.json names. With -trace 0
// the run prints every end-to-end metric; with -trace 1 it runs the
// per-layer ladder and a traced copy of the workload instead, prints every
// per-layer metric and an attribution table, and writes host-time spans.
// The last line of a completed run's standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Any golden
// mismatch makes correct false and the exit status 1; a run that cannot
// complete prints no result. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    string
	quick    bool
	workDir  string // directory for run files (default .bench_build/work)

	// setups is how many times set-up runs (in fresh processes) for the
	// setup_s median; the timed phase follows the last one.
	setups int
}

// workload is one benchmark input set and its checks.
type workload interface {
	// window is the number of operations in one throughput window: one
	// round of the workload's fixed work, so every window does the same
	// work and ops_per_s can be the median over windows.
	window() int
	// setup builds everything the timed phase needs. Its duration is
	// setup_s.
	setup(r *runner) error
	// measure runs the timed phase: operations until the deadline passes,
	// each recorded through r.op.
	measure(r *runner, until time.Time) error
	// verify checks the timed phase's outputs against goldens or an
	// independent recomputation.
	verify(r *runner) error
	// close releases what setup acquired (servers, run files).
	close() error
}

// workloads maps each workload name to its constructor, in BENCHMARK.json
// order.
var workloads = []struct {
	name string
	make func(cfg config) workload
}{
	{"eval-steady", newEvalSteady},
	{"wcet-analysis", newWCETAnalysis},
	{"conform-corpus", newConformCorpus},
	{"serve-closedloop", newServeClosedLoop},
}

func lookupWorkload(name string) (func(config) workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.make, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		cfg       config
		secs      int
		trace     int
		repeat    int
		setupOnly bool
		update    bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed (the conform corpus and the serve job mix derive from it)")
	flag.IntVar(&secs, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer ladder and a traced copy of the workload")
	flag.StringVar(&cfg.spans, "spans", "", "span file written with -trace 1 (default .bench_build/spans-<workload>.json)")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny inputs and one set-up (smoke test)")
	flag.IntVar(&repeat, "repeat", 0, "calibrate: run the workload N times in fresh processes (seeds seed..seed+N-1) and print median and quartiles of every metric")
	flag.BoolVar(&setupOnly, "setup-only", false, "run the workload's set-up once and print its duration (used for the setup_s median)")
	flag.BoolVar(&update, "update-goldens", false, "record the checked values into bench/testdata/goldens.json instead of comparing")
	flag.Parse()

	newW, ok := lookupWorkload(cfg.workload)
	if !ok || flag.NArg() > 0 || (trace != 0 && trace != 1) || secs < 1 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <%s> [-seed n] [-seconds s] [-trace 0|1]\n", workloadNames())
		os.Exit(2)
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	cfg.setups = 3
	if cfg.quick || update {
		cfg.setups = 1 // set-up children check against the embedded goldens
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".json")
	}

	var err error
	switch {
	case repeat > 0:
		err = calibrate(cfg, repeat, os.Args[1:])
	case setupOnly:
		err = setupOnce(cfg, newW)
	default:
		gold, gerr := loadGoldens(update)
		if gerr != nil {
			fatal(gerr)
		}
		res, rerr := run(cfg, newW, gold)
		if rerr != nil {
			fatal(rerr)
		}
		if update {
			if err := gold.save(); err != nil {
				fatal(err)
			}
		}
		if err := writeResult(os.Stdout, res); err != nil {
			fatal(err)
		}
		os.Exit(exitCode(res))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// exitCode is 0 only for a run whose every output checked out.
func exitCode(res *result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// runner carries one run's settings, checks and operation records.
type runner struct {
	cfg   config
	gold  *checker
	spans *spanLog // nil when untraced

	mu        sync.Mutex
	window    int                  // operations per throughput window (0: no windows)
	mark      time.Time            // end of the last closed window
	latencies []float64            // seconds per completed operation
	byKind    map[string][]float64 // the same latencies by operation kind
	windows   []float64            // seconds per window of completed operations
	rss       []float64            // resident set size in MB at the end of each window
	attempted int
	failed    int
	failures  []string
	simInsts  int64 // simulated instructions fed to timing models (informational)
}

// op records one attempted operation of the given kind that started at
// start. Every window-th completed operation closes a throughput window.
func (r *runner) op(kind string, start time.Time, err error) {
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
		return
	}
	lat := t.Sub(start).Seconds()
	r.latencies = append(r.latencies, lat)
	if r.byKind == nil {
		r.byKind = map[string][]float64{}
	}
	r.byKind[kind] = append(r.byKind[kind], lat)
	if r.window > 0 && len(r.latencies)%r.window == 0 {
		r.windows = append(r.windows, t.Sub(r.mark).Seconds())
		r.rss = append(r.rss, rssMB())
		r.mark = t
	}
}

// addSimInsts accounts simulated instructions for the informational rate.
func (r *runner) addSimInsts(n int64) {
	r.mu.Lock()
	r.simInsts += n
	r.mu.Unlock()
}

// startPhase clears the operation records (set-up work is not measured)
// and opens the first throughput window of window operations.
func (r *runner) startPhase(window int) {
	r.mu.Lock()
	r.latencies, r.byKind, r.windows, r.rss = nil, nil, nil, nil
	r.attempted, r.failed, r.failures, r.simInsts = 0, 0, nil, 0
	r.window, r.mark = window, now()
	r.mu.Unlock()
}

// latency returns the p-quantile (0..1) of operation latency in seconds,
// taken over each operation kind's median latency weighted by the kind's
// count. A workload whose mix repeats a few kinds (eval-steady's 48 plan
// jobs, wcet-analysis's 30 calls) has gaps between kinds; the pooled order
// statistic at such a gap jumps between kinds from run to run, while the
// kind at a given cumulative weight does not. Where every operation is its
// own kind (conform-corpus) this is the plain sample quantile.
func (r *runner) latency(p float64) float64 {
	type kindMedian struct {
		median float64
		count  int
	}
	var ks []kindMedian
	total := 0
	for _, lats := range r.byKind {
		ks = append(ks, kindMedian{median(append([]float64(nil), lats...)), len(lats)})
		total += len(lats)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].median < ks[j].median })
	cum := 0
	for _, k := range ks {
		cum += k.count
		if float64(cum) >= p*float64(total) {
			return k.median
		}
	}
	return math.NaN()
}

// more reports whether a timed phase with no rounds of its own should go
// on: until the deadline, and past it until one throughput window has
// closed, unless an operation failed (more time would not close it).
func (r *runner) more(until time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return now().Before(until) || (len(r.windows) == 0 && r.failed == 0)
}

// opsPerSecond is the median over closed windows of the window's
// operations per second: a stall or a burst of load from outside the
// benchmark moves one window, not the run's figure.
func (r *runner) opsPerSecond() (float64, error) {
	if len(r.windows) == 0 {
		return 0, fmt.Errorf("no throughput window of %d operations closed (%d completed)", r.window, len(r.latencies))
	}
	return float64(r.window) / median(append([]float64(nil), r.windows...)), nil
}

// run executes one invocation: set-up (repeated in fresh processes for
// the median), then either the timed phase or the traced ladder.
func run(cfg config, newW func(config) workload, gold *checker) (*result, error) {
	r := &runner{cfg: cfg, gold: gold}
	var setupTimes []float64
	if !cfg.trace {
		for i := 1; i < cfg.setups; i++ {
			s, err := setupChild(cfg)
			if err != nil {
				return nil, err
			}
			setupTimes = append(setupTimes, s)
		}
	}
	w := newW(cfg)
	t0 := now()
	if err := w.setup(r); err != nil {
		w.close() //visa:allow(errlint): the set-up error is the one reported
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	setupTimes = append(setupTimes, seconds(t0))

	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(r, w)
	} else {
		res, err = runTimed(r, w, median(setupTimes))
	}
	if cerr := w.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if mm := r.gold.mismatches(); len(mm) > 0 {
		res.Correct = false
		for _, m := range mm {
			fmt.Fprintln(os.Stderr, "bench: golden mismatch:", m)
		}
	}
	return res, nil
}

// runTimed measures the untraced timed phase and derives the end-to-end
// metrics.
func runTimed(r *runner, w workload, setupS float64) (*result, error) {
	r.startPhase(w.window())
	start := now()
	if err := w.measure(r, start.Add(r.cfg.seconds)); err != nil {
		return nil, fmt.Errorf("%s: %w", r.cfg.workload, err)
	}
	elapsed := seconds(start)
	if err := w.verify(r); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", r.cfg.workload, err)
	}
	lats := append([]float64(nil), r.latencies...)
	sort.Float64s(lats)
	if len(lats) == 0 {
		return nil, fmt.Errorf("%s: no operation completed (%d attempted, first failures: %v)",
			r.cfg.workload, r.attempted, r.failures)
	}
	opsPerS, err := r.opsPerSecond()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.cfg.workload, err)
	}
	fmt.Printf("workload %s seed %d: %d operations in %.3f s (%d failed), %d windows of %d\n",
		r.cfg.workload, r.cfg.seed, len(lats), elapsed, r.failed, len(r.windows), r.window)
	if p, beyond, ok := tailPercentile(len(lats)); ok {
		fmt.Printf("latency tail: p%g = %.3f ms over n=%d (%d samples beyond)\n",
			p, 1000*quantile(lats, p/100), len(lats), beyond)
	} else {
		fmt.Printf("latency tail: n=%d is too few for ten samples beyond the median\n", len(lats))
	}
	if r.simInsts > 0 {
		fmt.Printf("sim_minst_per_s %s (informational)\n", formatValue(float64(r.simInsts)/elapsed/1e6))
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", f)
	}
	res := &result{
		Correct:   true,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: []metric{
			{"setup_s", "s", setupS},
			{"ops_per_s", "1/s", opsPerS},
			{"latency_p50_ms", "ms", 1000 * r.latency(0.50)},
			{"latency_p90_ms", "ms", 1000 * r.latency(0.90)},
			{"rss_mb", "MB", median(append([]float64(nil), r.rss...))},
		},
	}
	return res, checkEmitted(res, endToEnd)
}

// runTraced runs the per-layer ladder, then a traced copy of the timed
// phase (half as long), and reports the per-layer metrics.
func runTraced(r *runner, w workload) (*result, error) {
	r.spans = newSpanLog()
	lad, err := runLadder(r)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	r.startPhase(w.window())
	before := readRuntime()
	start := now()
	phase := r.spans.begin(0, "workload/"+r.cfg.workload, 0)
	if err := w.measure(r, start.Add(r.cfg.seconds/2)); err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", r.cfg.workload, err)
	}
	r.spans.end(phase)
	after := readRuntime()
	if err := w.verify(r); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", r.cfg.workload, err)
	}
	done := len(r.latencies)
	opsPerS, err := r.opsPerSecond()
	if err != nil {
		return nil, fmt.Errorf("%s: traced phase: %w", r.cfg.workload, err)
	}
	lad.add("go.gc_cpu_frac", "ratio", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU))
	lad.add("go.alloc_mb_per_op", "MB", (after.allocBytes-before.allocBytes)/1e6/float64(done))
	lad.add("trace.ops_per_s", "1/s", opsPerS)

	printAttribution(os.Stdout, r, lad)
	if err := r.spans.write(r.cfg.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", r.spans.len(), r.cfg.spans)
	res := &result{
		Correct:   true,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   lad.metrics,
	}
	return res, checkEmitted(res, perLayer)
}

// checkEmitted fails a run whose metric set differs from the declared one:
// that is a bug in the benchmark, not a measurement.
func checkEmitted(res *result, defs []metricDef) error {
	got := map[string]string{}
	for _, m := range res.Metrics {
		got[m.Name] = m.Unit
	}
	var problems []string
	for _, d := range defs {
		u, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" missing")
		case u != d.Unit:
			problems = append(problems, fmt.Sprintf("%s unit %s, declared %s", d.Name, u, d.Unit))
		}
		delete(got, d.Name)
	}
	for name := range got {
		problems = append(problems, name+" undeclared")
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("emitted metrics differ from the declared set: %s", strings.Join(problems, "; "))
	}
	return nil
}

// rssMB is the process's current resident set size, from the second field
// of /proc/self/statm (pages).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN() // writeResult refuses it
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// setupOnce runs one set-up in this process and prints its duration; the
// parent process parses the last line.
func setupOnce(cfg config, newW func(config) workload) error {
	gold, err := loadGoldens(false)
	if err != nil {
		return err
	}
	r := &runner{cfg: cfg, gold: gold}
	w := newW(cfg)
	t0 := now()
	err = w.setup(r)
	s := seconds(t0)
	if cerr := w.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if mm := r.gold.mismatches(); len(mm) > 0 {
		return fmt.Errorf("set-up golden mismatch: %s", strings.Join(mm, "; "))
	}
	fmt.Printf("setup_s %s\n", strconv.FormatFloat(s, 'g', -1, 64))
	return nil
}

// setupChild runs one set-up in a fresh process (the set-up caches are
// per process) and returns its duration.
func setupChild(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-only", "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	fields := strings.Fields(lastLine(out))
	if len(fields) != 2 || fields[0] != "setup_s" {
		return 0, fmt.Errorf("set-up child printed %q", lastLine(out))
	}
	return strconv.ParseFloat(fields[1], 64)
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// calibrate runs the workload n times in fresh processes and prints the
// median, quartiles and relative spread of every metric.
func calibrate(cfg config, n int, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rest []string // the invocation's flags without -repeat/-seed
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		if name == "repeat" || name == "seed" {
			if !hasValue {
				i++
			}
			continue
		}
		rest = append(rest, args[i])
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		cmd := exec.Command(self, append([]string{"-seed", strconv.FormatUint(seed, 10)}, rest...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		res, err := parseResultLine(lastLine(out))
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "bench: calibration run %d/%d (seed %d) done\n", i+1, n, seed)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("calibration: workload %s, %d runs, seeds %d..%d, trace %v\n",
		cfg.workload, n, cfg.seed, cfg.seed+uint64(n)-1, cfg.trace)
	fmt.Printf("%-30s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-30s %14s %14s %14s %8.4f  %s\n", name,
			formatValue(q1), formatValue(q2), formatValue(q3), spread, units[name])
	}
	return nil
}

// resultLine is the decoded final JSON line of one run.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func parseResultLine(line string) (*resultLine, error) {
	var res resultLine
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", line, err)
	}
	if !res.Correct {
		return nil, errors.New("run reported correct=false")
	}
	return &res, nil
}

// Command benchdiff writes and gates the repository's committed
// performance records. A record, BENCH_N.json, holds the final JSON result
// line of every run of the repository benchmark (bench/run.sh) that went
// into it, verbatim, with the run's workload, seed and trace flag. It holds
// no statistics: the gate computes them from the runs.
//
// -record N runs the command BENCHMARK.json names: every workload untraced
// at seeds 1..5, then eval-steady traced at seeds 1..5 (its ladder carries
// every layer's rungs). It refuses an existing BENCH_N.json and writes
// nothing when a run exits non-zero or reports correct:false.
//
// Without -record it compares two records, taking each metric's median and
// interquartile range (IQR) over the runs, and fails when the newer one
//
//   - worsens an end_to_end metric of BENCHMARK.json, on any workload, by
//     more than that metric's bound and by more than the older IQR;
//   - raises exec.fill_ns_per_inst, simple.feed_ns_per_inst or
//     ooo.feed_ns_per_inst more than 20% above the older median and by more
//     than the older IQR;
//   - fails a larger share of its operations on any workload;
//   - lacks a workload or one of those three rungs.
//
// A worsening past the bound but inside the older spread prints
// "unresolved": the runs cannot tell it from noise. Every other ladder
// metric prints old -> new for information.
//
// Usage:
//
//	go run ./cmd/benchdiff               # the two highest-numbered BENCH_N.json
//	go run ./cmd/benchdiff old new       # explicit records
//	go run ./cmd/benchdiff -record 19    # write BENCH_19.json (about 10 minutes)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

// seeds is the number of runs per workload in a record, at seeds 1..seeds.
const seeds = 5

// tracedWorkload is the workload a record also runs with --trace 1.
const tracedWorkload = "eval-steady"

// rungs are the kernel ladder metrics the gate holds to rungTolerance.
var rungs = []string{"exec.fill_ns_per_inst", "simple.feed_ns_per_inst", "ooo.feed_ns_per_inst"}

// rungTolerance is the allowed fractional growth of a rung's median.
const rungTolerance = 0.20

// spec is the part of BENCHMARK.json that benchdiff reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is one bench/run.sh invocation as a record stores it.
type run struct {
	Workload string          `json:"workload"`
	Seed     int             `json:"seed"`
	Trace    bool            `json:"trace"`
	Result   json.RawMessage `json:"result"`

	res result
}

// result is the decoded final JSON line of one run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func main() {
	recordN := flag.Int("record", -1, "write BENCH_N.json from fresh benchmark runs instead of comparing")
	flag.Parse()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *recordN >= 0 {
		if flag.NArg() != 0 {
			fatal(errors.New("usage: benchdiff -record N"))
		}
		path := fmt.Sprintf("BENCH_%d.json", *recordN)
		if err := record(sp, path, benchRun(sp)); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %s\n", path)
		return
	}

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		oldPath, newPath, err = latestTwo(".")
		if err != nil {
			fatal(err)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fatal(errors.New("usage: benchdiff [old.json new.json] | -record N"))
	}
	oldRuns, err := load(oldPath)
	if err != nil {
		fatal(err)
	}
	newRuns, err := load(newPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: %s -> %s (median ± IQR over runs)\n", oldPath, newPath)
	if failures := diff(os.Stdout, sp, oldRuns, newRuns); len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("%s: needs command, run_seconds and workloads", path)
	}
	return &sp, nil
}

// runFunc performs one benchmark run and returns its final result line.
type runFunc func(workload string, seed int, trace bool) ([]byte, error)

// benchRun runs sp's command from the current directory. The run's
// standard error passes through; its last standard-output line is the
// result.
func benchRun(sp *spec) runFunc {
	return func(workload string, seed int, trace bool) ([]byte, error) {
		tr := "0"
		if trace {
			tr = "1"
		}
		args := append(sp.Command[1:len(sp.Command):len(sp.Command)],
			"--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", tr)
		cmd := exec.Command(sp.Command[0], args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, err
		}
		out := bytes.TrimSpace(stdout.Bytes())
		return out[bytes.LastIndexByte(out, '\n')+1:], nil
	}
}

// record performs a record's runs with do and writes them to path, one run
// per line. It refuses an existing path up front and writes nothing unless
// every run succeeds with correct:true.
func record(sp *spec, path string, do runFunc) error {
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%s exists; pick a new N", path)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	type plan struct {
		workload string
		trace    bool
	}
	var plans []plan
	for _, w := range sp.Workloads {
		plans = append(plans, plan{w.Name, false})
	}
	plans = append(plans, plan{tracedWorkload, true})

	var buf bytes.Buffer
	buf.WriteString("[\n")
	done, total := 0, seeds*len(plans)
	for seed := 1; seed <= seeds; seed++ {
		for _, p := range plans {
			fmt.Fprintf(os.Stderr, "benchdiff: run %d/%d: %s seed %d trace %v\n",
				done+1, total, p.workload, seed, p.trace)
			line, err := do(p.workload, seed, p.trace)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %v: %w", p.workload, seed, p.trace, err)
			}
			r := run{Workload: p.workload, Seed: seed, Trace: p.trace, Result: line}
			if err := r.decode(); err != nil {
				return err
			}
			enc, err := json.Marshal(&r)
			if err != nil {
				return err
			}
			if done > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(enc)
			done++
		}
	}
	buf.WriteString("\n]\n")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decode parses the run's result line and rejects an incorrect run.
func (r *run) decode() error {
	if err := json.Unmarshal(r.Result, &r.res); err != nil {
		return fmt.Errorf("%s seed %d trace %v: result line %q: %w", r.Workload, r.Seed, r.Trace, r.Result, err)
	}
	if !r.res.Correct {
		return fmt.Errorf("%s seed %d trace %v: run reported correct:false", r.Workload, r.Seed, r.Trace)
	}
	return nil
}

// latestTwo picks the two highest-numbered BENCH_N.json files in dir.
func latestTwo(dir string) (oldPath, newPath string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type rec struct {
		n    int
		path string
	}
	var recs []rec
	for _, e := range ents {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		recs = append(recs, rec{n, filepath.Join(dir, e.Name())})
	}
	if len(recs) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_N.json in %s, found %d", dir, len(recs))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].n < recs[j].n })
	return recs[len(recs)-2].path, recs[len(recs)-1].path, nil
}

// load reads a record, rejecting malformed, incorrect or duplicate runs.
func load(path string) ([]run, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []run
	if err := json.Unmarshal(buf, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	type key struct {
		workload string
		seed     int
		trace    bool
	}
	seen := map[key]bool{}
	for i := range runs {
		r := &runs[i]
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: run %d has no workload", path, i)
		}
		k := key{r.Workload, r.Seed, r.Trace}
		if seen[k] {
			return nil, fmt.Errorf("%s: duplicate run %s seed %d trace %v", path, r.Workload, r.Seed, r.Trace)
		}
		seen[k] = true
		if err := r.decode(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return runs, nil
}

// series collects each metric's values over the runs of one workload and
// trace flag.
func series(runs []run, workload string, trace bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		for name, m := range r.res.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

// opCounts sums a workload's failed and attempted operations over all of
// its runs.
func opCounts(runs []run, workload string) (failed, attempted int) {
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.res.Failed
			attempted += r.res.Attempted
		}
	}
	return failed, attempted
}

// judge compares one metric's runs. It fails a worsening of the median by
// more than bound (a fraction of the older median) and by more than the
// older IQR, and calls one past the bound but inside the IQR unresolved.
func judge(w io.Writer, label string, oldV, newV []float64, higherBetter bool, bound float64) (failed bool) {
	q1, om, q3 := quartiles(oldV)
	_, nm, _ := quartiles(newV)
	iqr := q3 - q1
	worse := nm - om
	if higherBetter {
		worse = -worse
	}
	verdict := "ok"
	switch {
	case worse <= bound*math.Abs(om):
	case worse <= iqr:
		verdict = "unresolved"
	default:
		verdict, failed = "REGRESSED", true
	}
	fmt.Fprintf(w, "  %-44s %12s ± %-10s -> %12s  %+7.1f%%  %s\n",
		label, fmtV(om), fmtV(iqr), fmtV(nm), pct(om, nm), verdict)
	return failed
}

// diff prints the comparison of two records to w and returns the gate
// failures.
func diff(w io.Writer, sp *spec, oldRuns, newRuns []run) []string {
	var failures []string
	for _, wl := range sp.Workloads {
		o, n := series(oldRuns, wl.Name, false), series(newRuns, wl.Name, false)
		if len(n) == 0 {
			failures = append(failures, wl.Name+": workload missing from the newer record")
			continue
		}
		if len(o) == 0 {
			fmt.Fprintf(w, "  %-44s new workload\n", wl.Name)
			continue
		}
		for _, e := range sp.EndToEnd {
			label := wl.Name + " " + e.Name
			switch {
			case len(n[e.Name]) == 0:
				failures = append(failures, label+": metric missing from the newer record")
			case len(o[e.Name]) == 0:
				fmt.Fprintf(w, "  %-44s new metric\n", label)
			case judge(w, label, o[e.Name], n[e.Name], e.Better == "higher", e.Bound):
				failures = append(failures, fmt.Sprintf("%s: worse by more than its %.0f%% bound and the older IQR", label, 100*e.Bound))
			}
		}
		ofl, oat := opCounts(oldRuns, wl.Name)
		nfl, nat := opCounts(newRuns, wl.Name)
		fmt.Fprintf(w, "  %-44s %d/%d -> %d/%d\n", wl.Name+" failed/attempted", ofl, oat, nfl, nat)
		if nfl*oat > ofl*nat { // nfl/nat > ofl/oat
			failures = append(failures, fmt.Sprintf("%s: failed/attempted rose from %d/%d to %d/%d", wl.Name, ofl, oat, nfl, nat))
		}
	}

	o, n := series(oldRuns, tracedWorkload, true), series(newRuns, tracedWorkload, true)
	fmt.Fprintf(w, "  %s --trace 1 ladder:\n", tracedWorkload)
	for _, name := range rungs {
		label := tracedWorkload + " " + name
		switch {
		case len(n[name]) == 0:
			failures = append(failures, label+": rung missing from the newer record")
		case len(o[name]) == 0:
			fmt.Fprintf(w, "  %-44s new rung\n", label)
		case judge(w, label, o[name], n[name], false, rungTolerance):
			failures = append(failures, fmt.Sprintf("%s: more than %.0f%% above the older median and its IQR", label, 100*rungTolerance))
		}
	}
	var info []string
	for name := range n {
		if !slices.Contains(rungs, name) && len(o[name]) > 0 {
			info = append(info, name)
		}
	}
	sort.Strings(info)
	for _, name := range info {
		_, om, _ := quartiles(o[name])
		_, nm, _ := quartiles(n[name])
		fmt.Fprintf(w, "  %-44s %12s -> %12s  %+7.1f%%\n", name, fmtV(om), fmtV(nm), pct(om, nm))
	}
	return failures
}

// quartiles returns the three cut points of values as bench/stats.go and
// Python's statistics.quantiles(values, n=4) compute them (the default
// "exclusive" method), so the gate's spreads match the benchmark's own.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new/old - 1)
}

func fmtV(v float64) string {
	return strconv.FormatFloat(v, 'g', 5, 64)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

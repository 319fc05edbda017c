package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"visa/internal/absint"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/power"
	"visa/internal/rt"
	"visa/internal/wcet"
)

// boostedPoints is the Figure 3 operating-point list: simple-fixed clocked
// 1.5x faster at equal voltage (what rt.Setup.BoostedTable(1.5) builds).
func boostedPoints() []power.OperatingPoint {
	pts := power.Points()
	for i := range pts {
		pts[i].FMHz = int(float64(pts[i].FMHz) * 1.5)
	}
	return pts
}

// passesPerRound is the number of wcet.Analyze operating-point passes one
// wcet-analysis round makes per benchmark: the 37-point table, the
// 37-point 1.5x table, and one verify-bounds pass at 1 GHz.
const passesPerRound = 2*power.NumPoints + 1

// callsPerBench is the number of timed public calls (operations) one round
// makes per benchmark: wcet.New, core.BuildWCETTable and
// core.BuildWCETTableAt on the table path; wcet.NewWithValueAnalysis and
// Analyzer.Analyze on the verify-bounds path.
const callsPerBench = 5

// wcetAnalysis is the static-analysis workload: rounds of fresh WCET
// analyses of every benchmark on the worker goroutines, longest task
// first. Each round builds, per benchmark, the WCET table (wcet.New,
// SetDCachePad, core.BuildWCETTable) and the Figure 3 table
// (core.BuildWCETTableAt at 1.5x) on one analyzer, and separately runs the
// `wcet -verify-bounds` path (wcet.NewWithValueAnalysis + Analyze at
// 1 GHz). Set-up builds the rt.Setup of each benchmark, whose D-cache pad
// the analyses use and whose tables they must reproduce. No simulation
// runs in the timed phase; adpcm is most of the work.
type wcetAnalysis struct {
	cfg     config
	benches []*clab.Benchmark
	setups  []*rt.Setup
	tasks   []wcetTask

	mu      sync.Mutex
	outputs map[string]string // output key -> digest of the first round
}

// wcetTask is one unit of scheduling: a benchmark's two tables, or its
// verify-bounds analysis.
type wcetTask struct {
	bench  int
	verify bool
	cost   float64 // seconds in the previous round (longest first)
}

func newWCETAnalysis(cfg config) workload {
	return &wcetAnalysis{cfg: cfg, benches: benchesFor(cfg), outputs: map[string]string{}}
}

// window is one round: every call of every task.
func (w *wcetAnalysis) window() int { return callsPerBench * len(w.benches) }

func (w *wcetAnalysis) setup(r *runner) error {
	var err error
	if w.setups, err = buildSetups(w.benches); err != nil {
		return err
	}
	for _, i := range bySize(w.benches) {
		w.tasks = append(w.tasks, wcetTask{bench: i}, wcetTask{bench: i, verify: true})
	}
	return nil
}

func (w *wcetAnalysis) measure(r *runner, until time.Time) error {
	for round := 0; round == 0 || now().Before(until); round++ {
		sort.SliceStable(w.tasks, func(i, j int) bool { return w.tasks[i].cost > w.tasks[j].cost })
		next := make(chan int, len(w.tasks)) // sized to the number of sends
		for i := range w.tasks {
			next <- i
		}
		close(next)
		parent := r.spans.begin(0, "wcet/round", int64(round))
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := range next {
					t0 := now()
					w.run(r, &w.tasks[i], parent, lane, int64(round))
					w.tasks[i].cost = seconds(t0)
				}
			}(g + 1)
		}
		wg.Wait()
		r.spans.end(parent)
	}
	return nil
}

// run executes one task, timing each public call as one operation.
func (w *wcetAnalysis) run(r *runner, t *wcetTask, parent, lane int, req int64) {
	b, s := w.benches[t.bench], w.setups[t.bench]
	call := func(name string, fn func() error) bool {
		kind := name + "/" + b.Name
		start := now()
		id := r.spans.beginLane(parent, lane, kind, req)
		err := fn()
		r.spans.end(id)
		r.op(kind, start, err)
		return err == nil
	}
	var an *wcet.Analyzer
	if t.verify {
		var findings []absint.BoundFinding
		var res *wcet.Result
		if call("wcet.NewWithValueAnalysis", func() (err error) {
			if an, findings, err = wcet.NewWithValueAnalysis(s.Prog); err != nil {
				return err
			}
			return an.SetDCachePad(s.DPad)
		}) && call("wcet.Analyzer.Analyze", func() (err error) {
			res, err = an.Analyze(1000)
			return err
		}) {
			w.output(r, "verify/"+b.Name, w.renderVerify(r, b.Name, findings, res))
		}
		return
	}
	var table, boosted *core.WCETTable
	if call("wcet.New", func() (err error) {
		if an, err = wcet.New(s.Prog); err != nil {
			return err
		}
		return an.SetDCachePad(s.DPad)
	}) && call("core.BuildWCETTable", func() (err error) {
		table, err = core.BuildWCETTable(an)
		return err
	}) && call("core.BuildWCETTableAt", func() (err error) {
		boosted, err = core.BuildWCETTableAt(an, boostedPoints())
		return err
	}) {
		w.output(r, "table/"+b.Name, encodeTable(r, table))
		w.output(r, "boosted/"+b.Name, encodeTable(r, boosted))
	}
}

// renderVerify renders the verify-bounds findings and 1 GHz bound. Every
// loop bound must validate (status ok): the C-lab annotations are exact.
func (w *wcetAnalysis) renderVerify(r *runner, bench string, findings []absint.BoundFinding, res *wcet.Result) string {
	var b strings.Builder
	for _, f := range findings {
		if f.Status != absint.BoundOK {
			r.gold.fail("wcet: %s: bound finding not ok: %v", bench, f)
		}
		fmt.Fprintln(&b, f)
	}
	fmt.Fprintf(&b, "%d MHz: %v total %d\n", res.FMHz, res.SubTasks, res.Total)
	return b.String()
}

// encodeTable is the table's binary encoding; a table that cannot be
// encoded is a failed check.
func encodeTable(r *runner, t *core.WCETTable) string {
	enc, err := t.MarshalBinary()
	if err != nil {
		r.gold.fail("wcet: encode table: %v", err)
	}
	return string(enc)
}

// output keeps the first round's digest of each output and checks every
// later round against it.
func (w *wcetAnalysis) output(r *runner, key, value string) {
	d := digest([]byte(value))
	w.mu.Lock()
	first, ok := w.outputs[key]
	if !ok {
		w.outputs[key] = d
	}
	w.mu.Unlock()
	if ok && first != d {
		r.gold.fail("wcet: %s differs between rounds", key)
	}
}

// verify checks the rebuilt tables against the ones rt.GetSetup built (the
// table and its cached 1.5x boost) and pins every output's digest.
func (w *wcetAnalysis) verify(r *runner) error {
	for i, b := range w.benches {
		boosted, err := w.setups[i].BoostedTable(1.5)
		if err != nil {
			return err
		}
		if w.outputs["table/"+b.Name] != digest([]byte(encodeTable(r, w.setups[i].Table))) {
			r.gold.fail("wcet: %s: rebuilt table differs from rt.GetSetup's", b.Name)
		}
		if w.outputs["boosted/"+b.Name] != digest([]byte(encodeTable(r, boosted))) {
			r.gold.fail("wcet: %s: rebuilt 1.5x table differs from rt.Setup.BoostedTable's", b.Name)
		}
		for _, kind := range []string{"table", "boosted", "verify"} {
			key := kind + "/" + b.Name
			got, ok := w.outputs[key]
			if !ok {
				return fmt.Errorf("%s never completed", key)
			}
			r.gold.golden(goldenKey(w.cfg, "wcet/"+key), got)
		}
	}
	return nil
}

func (w *wcetAnalysis) close() error { return nil }

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"visa/internal/absint"
	"visa/internal/bpred"
	"visa/internal/cache"
	cfgraph "visa/internal/cfg"
	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/ooo"
	"visa/internal/rt"
	"visa/internal/serve"
	"visa/internal/simple"
	"visa/internal/wal"
	"visa/internal/wcet"
)

// The ladder times calls into each layer's public functions on the inputs
// the workloads use: one task of each C-lab benchmark, the pinned conform
// anchor corpus, and a pinned visad session over the same benchmarks. So
// layer costs add up to workload costs. Every rung repeats its call until
// it has run minReps times and its budget has passed, and keeps the
// median.

// share is one layer's estimated host time inside a parent span.
type share struct {
	layer   string
	seconds float64
}

// ladderResult holds the per-layer metrics and the layer estimates the
// attribution table needs.
type ladderResult struct {
	metrics []metric

	// rt.RunProcessor over every benchmark and both processors: the sum of
	// each call's median time, and the ladder's estimate of each layer
	// inside it.
	rpSeconds float64
	rpParts   []share

	// Ladder estimates of one operation of the other workloads.
	wcetRound   []share // one wcet-analysis round (all its operations)
	conformProg []share // one conform-corpus program
	serveJob    []share // one visad job
}

func (l *ladderResult) add(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
}

func (l *ladderResult) value(name string) (float64, bool) {
	for _, m := range l.metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// exactCounts are the ladder's counts that every run must reproduce.
var exactCounts = []string{
	"sim.instructions", "sim.cycles_simple", "sim.cycles_complex",
	"cache.imisses", "cache.dmisses", "rt.missed_tasks", "wcet.passes",
	"conform.timing_runs", "serve.journal_bytes_per_job",
	"serve.events_per_job", "model.tight_savings_pct", "model.wcet_over_simple",
}

// rungBudget scales a rung's minimum measuring time (none under -quick).
func rungBudget(cfg config, full time.Duration) time.Duration {
	if cfg.quick {
		return 0
	}
	return full
}

// timeReps calls fn until it has run minReps times and budget has passed,
// and returns each call's duration in seconds.
func timeReps(minReps int, budget time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	start := now()
	for len(out) < minReps || now().Sub(start) < budget {
		t0 := now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, seconds(t0))
	}
	return out, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func runLadder(r *runner) (*ladderResult, error) {
	benches := benchesFor(r.cfg)
	setups, err := buildSetups(benches)
	if err != nil {
		return nil, err
	}
	lad := &ladderResult{}
	root := r.spans.begin(0, "ladder", 0)
	defer r.spans.end(root)

	traces := make([]*benchTrace, len(setups))
	for i, s := range setups {
		if traces[i], err = recordTrace(s); err != nil {
			return nil, err
		}
	}
	costs, err := simRungs(r, root, lad, traces)
	if err != nil {
		return nil, fmt.Errorf("simulator rungs: %w", err)
	}
	if err := rtRungs(r, root, lad, traces, costs); err != nil {
		return nil, fmt.Errorf("rt rungs: %w", err)
	}
	if err := staticRungs(r, root, lad, setups); err != nil {
		return nil, fmt.Errorf("static-analysis rungs: %w", err)
	}
	if err := conformRungs(r, root, lad); err != nil {
		return nil, fmt.Errorf("conform rungs: %w", err)
	}
	if err := serveRungs(r, root, lad, benchesFor(r.cfg)); err != nil {
		return nil, fmt.Errorf("serve rungs: %w", err)
	}

	var ratio float64
	for _, s := range setups {
		wcetUs := s.Table.TotalTimeNs(len(s.Table.Points)-1) / 1000
		ratio += wcetUs / (float64(s.SteadySimpleCycles) / 1000)
	}
	lad.add("model.wcet_over_simple", "ratio", ratio/float64(len(setups)))
	lad.add("wcet.passes", "count", float64(passesPerRound*len(benches)))
	for _, name := range exactCounts {
		v, ok := lad.value(name)
		if !ok {
			return nil, fmt.Errorf("exact count %s was not measured", name)
		}
		r.gold.goldenCount(goldenKey(r.cfg, "count/"+name), v)
	}
	return lad, nil
}

// benchTrace is one task of a benchmark as the timing models see it.
type benchTrace struct {
	s        *rt.Setup
	trace    []exec.DynInst
	iaddrs   []uint32 // instruction fetch addresses
	daddrs   []uint32 // load/store addresses
	branches []int    // indices of conditional branches in trace
}

func recordTrace(s *rt.Setup) (*benchTrace, error) {
	m := exec.New(s.Prog)
	bt := &benchTrace{s: s, trace: make([]exec.DynInst, 0, s.DynInsts)}
	var batch [64]exec.DynInst
	for {
		n, err := m.Fill(batch[:])
		bt.trace = append(bt.trace, batch[:n]...)
		if err != nil {
			return nil, err
		}
		if n < len(batch) {
			break
		}
	}
	if int64(len(bt.trace)) != s.DynInsts {
		return nil, fmt.Errorf("%s: trace has %d instructions, set-up profiled %d",
			s.Bench.Name, len(bt.trace), s.DynInsts)
	}
	for i := range bt.trace {
		d := &bt.trace[i]
		bt.iaddrs = append(bt.iaddrs, isa.InstAddr(int(d.PC)))
		if d.Inst.Op.IsMem() {
			bt.daddrs = append(bt.daddrs, d.Addr)
		}
		if d.Inst.Op.IsCondBranch() {
			bt.branches = append(bt.branches, i)
		}
	}
	return bt, nil
}

// simCosts are one benchmark's per-task unit costs (seconds) and counts.
type simCosts struct {
	exec, simpleFeed, oooFeed, solve float64
	simpleAcc, oooAcc                int64 // cache accesses per warm task
	cacheAccess, branch              float64
}

// sinkWord keeps measured results observable so the compiler cannot drop
// the calls that produce them.
var sinkWord uint64

// simRungs times the simulator layers on one task of every benchmark, in
// the steady state of the periodic experiment: caches and predictors warm
// from the previous task, the functional machine reset.
func simRungs(r *runner, root int, lad *ladderResult, traces []*benchTrace) ([]simCosts, error) {
	const minReps = 3
	n := len(traces)
	costs := make([]simCosts, n)
	var (
		insts, cycSimple, cycComplex, imisses, dmisses int64
		execT, memT, simpleT, oooT, cacheT, bpredT     float64
		memN, cacheN, bpredN                           int
		solveUs                                        float64
	)
	var batch [64]exec.DynInst
	fill := func(m *exec.Machine) error {
		m.Reset()
		for {
			n, err := m.Fill(batch[:])
			if err != nil {
				return err
			}
			if n < len(batch) {
				return nil
			}
		}
	}
	for i, bt := range traces {
		name := bt.s.Bench.Name
		c := &costs[i]
		insts += int64(len(bt.trace))

		m := exec.New(bt.s.Prog)
		id := r.spans.begin(root, "exec.Machine.Fill/"+name, 0)
		d, err := timeReps(minReps, rungBudget(r.cfg, 300*time.Millisecond)/time.Duration(n), func() error { return fill(m) })
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		c.exec = median(d)
		execT += c.exec

		id = r.spans.begin(root, "mem.Memory.ReadWord/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 150*time.Millisecond)/time.Duration(n), func() error {
			for _, a := range bt.daddrs {
				v, err := m.Mem.ReadWord(a &^ 3)
				if err != nil {
					return err
				}
				sinkWord += uint64(v)
			}
			return nil
		})
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		memT += median(d)
		memN += len(bt.daddrs)

		ic, dc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
		sp := simple.New(ic, dc, memsys.NewBus(memsys.Default, 1000))
		feedSimple := func() error {
			sp.Rebase(0)
			for k := range bt.trace {
				sp.Feed(&bt.trace[k])
			}
			return nil
		}
		feedSimple() //visa:allow(errlint): feedSimple cannot fail; this cold task only warms the caches
		before := ic.Stats().Accesses + dc.Stats().Accesses
		feedSimple() //visa:allow(errlint): feedSimple cannot fail
		c.simpleAcc = ic.Stats().Accesses + dc.Stats().Accesses - before
		if sp.Now() != bt.s.SteadySimpleCycles {
			r.gold.fail("ladder: %s: simple pipeline steady task took %d cycles, set-up profiled %d",
				name, sp.Now(), bt.s.SteadySimpleCycles)
		}
		cycSimple += sp.Now()
		id = r.spans.begin(root, "simple.Pipeline.Feed/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 300*time.Millisecond)/time.Duration(n), feedSimple)
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		c.simpleFeed = median(d)
		simpleT += c.simpleFeed

		ic, dc = cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
		cx := ooo.New(ooo.Config{}, ic, dc, memsys.NewBus(memsys.Default, 1000))
		feedOOO := func() error {
			cx.Rebase(0)
			for k := range bt.trace {
				cx.Feed(&bt.trace[k])
			}
			return nil
		}
		feedOOO() //visa:allow(errlint): feedOOO cannot fail; this cold task only warms the caches and predictors
		before = ic.Stats().Accesses + dc.Stats().Accesses
		feedOOO() //visa:allow(errlint): feedOOO cannot fail
		c.oooAcc = ic.Stats().Accesses + dc.Stats().Accesses - before
		if cx.Now() != bt.s.SteadyComplexCycles {
			r.gold.fail("ladder: %s: complex pipeline steady task took %d cycles, set-up profiled %d",
				name, cx.Now(), bt.s.SteadyComplexCycles)
		}
		cycComplex += cx.Now()
		id = r.spans.begin(root, "ooo.Pipeline.Feed/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 400*time.Millisecond)/time.Duration(n), feedOOO)
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		c.oooFeed = median(d)
		oooT += c.oooFeed

		icache, dcache := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
		for _, a := range bt.iaddrs {
			icache.Access(a)
		}
		for _, a := range bt.daddrs {
			dcache.Access(a)
		}
		imisses += icache.Stats().Misses
		dmisses += dcache.Stats().Misses
		id = r.spans.begin(root, "cache.Cache.Access/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 200*time.Millisecond)/time.Duration(n), func() error {
			for _, a := range bt.iaddrs {
				if icache.Access(a) {
					sinkWord++
				}
			}
			for _, a := range bt.daddrs {
				if dcache.Access(a) {
					sinkWord++
				}
			}
			return nil
		})
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		cacheT += median(d)
		cacheN += len(bt.iaddrs) + len(bt.daddrs)

		const bpredPasses = 10
		g := bpred.NewGshare(ooo.Default.GshareBits)
		id = r.spans.begin(root, "bpred.Gshare/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 100*time.Millisecond)/time.Duration(n), func() error {
			for p := 0; p < bpredPasses; p++ {
				for _, k := range bt.branches {
					di := &bt.trace[k]
					if g.Predict(int(di.PC)) == di.Taken {
						sinkWord++
					}
					g.Update(int(di.PC), di.Taken)
				}
			}
			return nil
		})
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		bpredT += median(d) / bpredPasses
		bpredN += len(bt.branches)

		const solveCalls = 50
		s := bt.s
		params := core.Params{DeadlineNs: s.Deadline(true), OvhdNs: rt.OvhdNs}
		pets := s.WCETSeedPETs()
		id = r.spans.begin(root, "core.Solve/"+name, 0)
		d, err = timeReps(minReps, rungBudget(r.cfg, 100*time.Millisecond)/time.Duration(n), func() error {
			for k := 0; k < solveCalls; k++ {
				if _, ok := core.Solve(core.SpecVISA, params, s.Table, pets); !ok {
					return fmt.Errorf("%s: no feasible plan", name)
				}
			}
			return nil
		})
		r.spans.end(id)
		if err != nil {
			return nil, err
		}
		c.solve = median(d) / solveCalls
		solveUs += c.solve * 1e6
	}
	cacheNs, branchNs := cacheT/float64(cacheN), bpredT/float64(max(bpredN, 1))
	for i := range costs {
		costs[i].cacheAccess, costs[i].branch = cacheNs, branchNs
	}
	lad.add("exec.fill_ns_per_inst", "ns", 1e9*execT/float64(insts))
	lad.add("mem.read_ns", "ns", 1e9*memT/float64(max(memN, 1)))
	lad.add("simple.feed_ns_per_inst", "ns", 1e9*simpleT/float64(insts))
	lad.add("ooo.feed_ns_per_inst", "ns", 1e9*oooT/float64(insts))
	lad.add("cache.access_ns", "ns", 1e9*cacheNs)
	lad.add("bpred.gshare_ns", "ns", 1e9*branchNs)
	lad.add("core.solve_us", "us", solveUs/float64(n))
	lad.add("sim.instructions", "count", float64(insts))
	lad.add("sim.cycles_simple", "count", float64(cycSimple))
	lad.add("sim.cycles_complex", "count", float64(cycComplex))
	lad.add("cache.imisses", "count", float64(imisses))
	lad.add("cache.dmisses", "count", float64(dmisses))
	return costs, nil
}

// rtRungs times rt.RunProcessor on every benchmark and processor at the
// eval-steady instance count, attributes its time to the layers measured
// above, and times one Figure 2 plan on the engine for its busy fraction.
func rtRungs(r *runner, root int, lad *ladderResult, traces []*benchTrace, costs []simCosts) error {
	inst := evalInstances
	reps := 3
	if r.cfg.quick {
		inst, reps = quickEvalInstances, 1
	}
	procs := []rt.Proc{rt.ProcComplex, rt.ProcSimpleFixed}
	calls := make([][]float64, len(traces)*len(procs)) // per call, one duration per repetition
	missed := -1
	for rep := 0; rep < reps; rep++ {
		m := 0
		for i, bt := range traces {
			for j, proc := range procs {
				cfg := rt.NewConfig(rt.WithTightDeadline(true), rt.WithInstances(inst))
				t0 := now()
				id := r.spans.begin(root, "rt.RunProcessor/"+bt.s.Bench.Name+"/"+proc.String(), int64(rep))
				res, err := rt.RunProcessor(bt.s, proc, cfg)
				r.spans.end(id)
				k := i*len(procs) + j
				calls[k] = append(calls[k], seconds(t0))
				if err != nil {
					return err
				}
				if res.DeadlineViolations > 0 || res.WCETExceedances > 0 {
					r.gold.fail("ladder: %s/%s: %d deadline violations, %d WCET exceedances",
						bt.s.Bench.Name, proc, res.DeadlineViolations, res.WCETExceedances)
				}
				m += res.MissedTasks
			}
		}
		if missed >= 0 && m != missed {
			r.gold.fail("ladder: rt.RunProcessor missed %d tasks, then %d", missed, m)
		}
		missed = m
	}
	// Like the rungs' unit costs, each call's time is its median over the
	// repetitions.
	for _, d := range calls {
		lad.rpSeconds += median(d)
	}

	var execS, simpleS, oooS, cacheS, bpredS, solveS float64
	fi := float64(inst)
	for i, c := range costs {
		execS += 2 * fi * c.exec
		simpleCache := fi * float64(c.simpleAcc) * c.cacheAccess
		oooCache := fi * float64(c.oooAcc) * c.cacheAccess
		branches := fi * float64(len(traces[i].branches)) * c.branch
		simpleS += fi*c.simpleFeed - simpleCache
		oooS += fi*c.oooFeed - oooCache - branches
		cacheS += simpleCache + oooCache
		bpredS += branches
		solveS += 2 * (1 + fi/rt.ReevalEvery) * c.solve
	}
	lad.rpParts = []share{{"ooo", oooS}, {"exec", execS}, {"simple", simpleS},
		{"cache", cacheS}, {"bpred", bpredS}, {"core", solveS}}
	explained := execS + simpleS + oooS + cacheS + bpredS + solveS
	lad.add("rt.run_processor_ms", "ms", 1000*lad.rpSeconds)
	lad.add("rt.self_frac", "ratio", (lad.rpSeconds-explained)/lad.rpSeconds)
	lad.add("rt.missed_tasks", "count", float64(missed))
	return engineRung(r, root, lad, inst)
}

// engineRung runs one Figure 2 plan on the two-worker engine with each job
// timed, for the engine's busy fraction and the model's savings figure.
func engineRung(r *runner, root int, lad *ladderResult, inst int) error {
	jobs := &runner{cfg: r.cfg, gold: r.gold, spans: r.spans}
	plan := rt.Figure2Plan(benchesFor(r.cfg), inst)
	id := r.spans.begin(root, "rt.Engine.Run/fig2", 0)
	t0 := now()
	rep, err := (&rt.Engine{Workers: workers}).Run(timedPlan(jobs, plan, id, inst))
	wall := seconds(t0)
	r.spans.end(id)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	r.gold.golden(goldenKey(r.cfg, fmt.Sprintf("eval/%s/i%d", plan.Name, inst)), rt.ReportHash(rep.Text))
	busy := 0.0
	for _, l := range jobs.latencies {
		busy += l
	}
	lad.add("engine.busy_frac", "ratio", busy/(wall*workers))

	// Figure 2 rows come in the order T, T+stby, L, L+stby per benchmark.
	var savings float64
	rows := rep.SavingsRows()
	for i := 0; i < len(rows); i += 4 {
		savings += rows[i].Savings
	}
	lad.add("model.tight_savings_pct", "%", 100*savings/float64(len(rows)/4))
	return nil
}

// staticRungs times the static-analysis layers per benchmark program.
func staticRungs(r *runner, root int, lad *ladderResult, setups []*rt.Setup) error {
	budget := rungBudget(r.cfg, 100*time.Millisecond)
	var cfgT, absT, newT, tableT, maxPass float64
	var passS, newS, cfgS, absS float64
	for _, s := range setups {
		name := s.Bench.Name
		id := r.spans.begin(root, "cfg.Build/"+name, 0)
		d, err := timeReps(1, budget, func() error { _, err := cfgraph.Build(s.Prog); return err })
		r.spans.end(id)
		if err != nil {
			return err
		}
		cfgB := median(d)

		g, err := cfgraph.BuildWithOptions(s.Prog, cfgraph.Options{AllowMissingBounds: true})
		if err != nil {
			return err
		}
		id = r.spans.begin(root, "absint.Analyze/"+name, 0)
		d, err = timeReps(1, budget, func() error { absint.Analyze(g); return nil })
		r.spans.end(id)
		if err != nil {
			return err
		}
		absB := median(d)

		id = r.spans.begin(root, "wcet.New/"+name, 0)
		d, err = timeReps(1, budget, func() error { _, err := wcet.New(s.Prog); return err })
		r.spans.end(id)
		if err != nil {
			return err
		}
		newB := median(d)

		// Each repetition needs a fresh analyzer: its memo tables would
		// make a second table build on the same one nearly free.
		var tables, boosts []float64
		start := now()
		for len(tables) < 1 || now().Sub(start) < budget {
			an, err := wcet.New(s.Prog)
			if err != nil {
				return err
			}
			if err := an.SetDCachePad(s.DPad); err != nil {
				return err
			}
			id = r.spans.begin(root, "core.BuildWCETTable/"+name, 0)
			t0 := now()
			t, err := core.BuildWCETTable(an)
			tables = append(tables, seconds(t0))
			r.spans.end(id)
			if err != nil {
				return err
			}
			id = r.spans.begin(root, "core.BuildWCETTableAt/"+name, 0)
			t0 = now()
			_, err = core.BuildWCETTableAt(an, boostedPoints())
			boosts = append(boosts, seconds(t0))
			r.spans.end(id)
			if err != nil {
				return err
			}
			got, err := t.MarshalBinary()
			if err != nil {
				return err
			}
			want, err := s.Table.MarshalBinary()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				r.gold.fail("ladder: %s: rebuilt WCET table differs from rt.GetSetup's", name)
			}
		}
		tableB, boostB := median(tables), median(boosts)
		pass := tableB / float64(len(s.Table.Points))
		cfgT, absT, newT, tableT = cfgT+cfgB, absT+absB, newT+newB, tableT+tableB
		maxPass = max(maxPass, pass)

		// One wcet-analysis round: two analyzers (table path and
		// verify-bounds path), each on its own graph, the two tables, the
		// value analysis, and one verify pass.
		passS += tableB + boostB + pass
		newS += 2 * (newB - cfgB)
		cfgS += 2 * cfgB
		absS += absB
	}
	n := float64(len(setups))
	lad.add("cfg.build_ms", "ms", 1000*cfgT/n)
	lad.add("absint.analyze_ms", "ms", 1000*absT/n)
	lad.add("wcet.new_ms", "ms", 1000*newT/n)
	lad.add("wcet.pass_ms", "ms", 1000*tableT/n/float64(len(setups[0].Table.Points)))
	lad.add("wcet.pass_ms.max", "ms", 1000*maxPass)
	lad.add("core.build_table_ms", "ms", 1000*tableT/n)
	lad.wcetRound = []share{{"wcet.Analyze", passS}, {"wcet.New", newS}, {"cfg", cfgS}, {"absint", absS}}
	return nil
}

// conformRungs times generation, the oracle, and the per-program
// constructors on the pinned anchor corpus.
func conformRungs(r *runner, root int, lad *ladderResult) error {
	n := conformAnchorN
	if r.cfg.quick {
		n = quickConformAnchorN
	}
	camp := conform.Campaign{Seed: conformAnchorSeed, N: n}
	progs := make([]*isa.Program, n)
	var gens, checks []float64
	runs := 0
	for i := 0; i < n; i++ {
		seed := camp.ProgramSeed(i)
		id := r.spans.begin(root, "conform.GenProgram", int64(i))
		t0 := now()
		prog, err := conform.GenProgram(seed).Program()
		gens = append(gens, seconds(t0))
		r.spans.end(id)
		if err != nil {
			return err
		}
		progs[i] = prog
		id = r.spans.begin(root, "conform.Check", int64(i))
		t0 = now()
		res, err := conform.Check(prog, conform.Options{Faults: conform.DefaultFaults(seed)})
		checks = append(checks, seconds(t0))
		r.spans.end(id)
		if err != nil {
			return err
		}
		if len(res.Violations) > 0 {
			r.gold.fail("ladder: conform program %d (seed %d): %d violations", i, seed, len(res.Violations))
		}
		runs += res.Runs
	}
	genMean, checkMean := mean(gens), mean(checks)
	sort.Float64s(checks)
	lad.add("conform.gen_us", "us", 1e6*median(gens))
	lad.add("conform.check_ms", "ms", 1000*quantile(checks, 0.5))
	lad.add("conform.check_ms_p90", "ms", 1000*quantile(checks, 0.9))
	lad.add("conform.timing_runs", "count", float64(runs))
	lad.conformProg = []share{{"conform.GenProgram", genMean}, {"conform.Check", checkMean}}

	budget := rungBudget(r.cfg, 100*time.Millisecond)
	perProg := func(name string, fn func(p *isa.Program) error) (float64, error) {
		id := r.spans.begin(root, name, 0)
		defer r.spans.end(id)
		d, err := timeReps(3, budget, func() error {
			for _, p := range progs {
				if err := fn(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return median(d) / float64(len(progs)), nil
	}
	execNew, err := perProg("exec.New", func(p *isa.Program) error {
		if exec.New(p).Prog != p {
			return fmt.Errorf("exec.New lost its program")
		}
		return nil
	})
	if err != nil {
		return err
	}
	simpleNew, err := perProg("simple.New", func(p *isa.Program) error {
		sp := simple.New(cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1), memsys.NewBus(memsys.Default, 1000))
		sinkWord += uint64(sp.Now())
		return nil
	})
	if err != nil {
		return err
	}
	oooNew, err := perProg("ooo.New", func(p *isa.Program) error {
		cx := ooo.New(ooo.Config{}, cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1), memsys.NewBus(memsys.Default, 1000))
		sinkWord += uint64(cx.Now())
		return nil
	})
	if err != nil {
		return err
	}
	wcetNew, err := perProg("wcet.New", func(p *isa.Program) error {
		_, err := wcet.New(p)
		return err
	})
	if err != nil {
		return err
	}
	lad.add("exec.new_us", "us", 1e6*execNew)
	lad.add("simple.new_us", "us", 1e6*simpleNew)
	lad.add("ooo.new_us", "us", 1e6*oooNew)
	lad.add("wcet.new_ms_small", "ms", 1000*wcetNew)
	return nil
}

// serveJobs is the pinned visad session's job count.
const (
	serveLadderJobs      = 12
	quickServeLadderJobs = 4
	walAppends           = 2000
	quickWALAppends      = 50
	recoveries           = 10
	quickRecoveries      = 2
)

// serveRungs runs a pinned visad session with one sequential client (so
// the journal's bytes are exact), then times the journal underneath it.
func serveRungs(r *runner, root int, lad *ladderResult, benches []*clab.Benchmark) error {
	jobs, appends, recovers, inst := serveLadderJobs, walAppends, recoveries, serveInstances
	if r.cfg.quick {
		jobs, appends, recovers, inst = quickServeLadderJobs, quickWALAppends, quickRecoveries, quickServeInstances
	}
	dir, err := newWorkDir(r.cfg, "ladder-serve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var mu sync.Mutex
	var submits []float64
	timeSubmit := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodPost {
				h.ServeHTTP(w, req)
				return
			}
			t0 := now()
			h.ServeHTTP(w, req)
			d := seconds(t0)
			mu.Lock()
			submits = append(submits, d)
			mu.Unlock()
		})
	}
	svc, err := startService(dir, timeSubmit)
	if err != nil {
		return err
	}
	var rtts, firsts, lats, engines []float64
	events := 0
	for k := 0; k < jobs; k++ {
		spec := pairSpec(benches[k%len(benches)].Name, benches[(k+1)%len(benches)].Name, inst)
		body, err := spec.Encode()
		if err != nil {
			svc.stop() //visa:allow(errlint): the encode error is the one reported
			return err
		}
		id := r.spans.begin(root, "serve.job", int64(k))
		t0 := now()
		out, err := submitAndWait(svc.client, svc.base, "ladder", body)
		lats = append(lats, seconds(t0))
		r.spans.end(id)
		if err != nil {
			svc.stop() //visa:allow(errlint): the job error is the one reported
			return err
		}
		rtts = append(rtts, out.postRTT.Seconds())
		firsts = append(firsts, out.firstEvent.Seconds())
		events += out.events

		id = r.spans.begin(root, "rt.Engine.Run/offline", int64(k))
		t0 = now()
		want, err := offlineReport(spec)
		engines = append(engines, seconds(t0))
		r.spans.end(id)
		if err != nil {
			svc.stop() //visa:allow(errlint): the engine error is the one reported
			return err
		}
		if want != out.report {
			r.gold.fail("ladder: visad report of job %d differs from the offline engine", k)
		}
	}
	if err := svc.stop(); err != nil {
		return err
	}
	journal, err := os.ReadFile(svc.journal)
	if err != nil {
		return err
	}
	lad.add("serve.submit_ms", "ms", 1000*median(submits))
	lad.add("serve.post_rtt_ms", "ms", 1000*median(rtts))
	lad.add("serve.first_event_ms", "ms", 1000*median(firsts))
	lad.add("engine.run_ms", "ms", 1000*median(engines))
	lad.add("serve.overhead_ms", "ms", 1000*(median(lats)-median(engines)))
	lad.add("serve.journal_bytes_per_job", "bytes", float64(len(journal))/float64(jobs))
	lad.add("serve.events_per_job", "count", float64(events)/float64(jobs))

	var recs [][]byte
	id := r.spans.begin(root, "wal.Replay", 0)
	d, err := timeReps(5, rungBudget(r.cfg, 100*time.Millisecond), func() error {
		var err error
		recs, _, _, err = wal.Replay(bytes.NewReader(journal))
		return err
	})
	r.spans.end(id)
	if err != nil {
		return err
	}
	lad.add("wal.replay_ms", "ms", 1000*median(d))

	w, _, _, err := wal.Open(dir+"/append.wal", wal.SyncAlways)
	if err != nil {
		return err
	}
	id = r.spans.begin(root, "wal.Writer.Append", 0)
	appendT := make([]float64, 0, appends)
	for k := 0; k < appends; k++ {
		t0 := now()
		if err := w.Append(recs[k%len(recs)]); err != nil {
			w.Close() //visa:allow(errlint): the append error is the one reported
			return err
		}
		appendT = append(appendT, seconds(t0))
	}
	r.spans.end(id)
	if err := w.Close(); err != nil {
		return err
	}
	appendMed := median(appendT) // sorts appendT
	lad.add("wal.append_us", "us", 1e6*appendMed)
	lad.add("wal.append_us_p99", "us", 1e6*quantile(appendT, 0.99))

	var recT []float64
	for k := 0; k < recovers; k++ {
		path := fmt.Sprintf("%s/recover-%d.wal", dir, k)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			return err
		}
		id := r.spans.begin(root, "serve.Open/recover", int64(k))
		t0 := now()
		srv, rec, err := serve.Open(serveConfig(path))
		recT = append(recT, seconds(t0))
		r.spans.end(id)
		if err != nil {
			return err
		}
		if rec.Done != jobs || rec.Requeued != 0 {
			r.gold.fail("ladder: recovery found %d done and %d re-queued jobs, want %d and 0", rec.Done, rec.Requeued, jobs)
		}
		if err := drain(srv); err != nil {
			return err
		}
	}
	lad.add("serve.recovery_ms", "ms", 1000*median(recT))

	perJob := float64(len(recs)) / float64(jobs)
	lad.serveJob = []share{{"rt.Engine", median(engines)}, {"http POST", median(rtts)},
		{"wal", perJob * appendMed}}
	return nil
}

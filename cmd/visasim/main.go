// Command visasim runs tasks on one of the two cycle-level processor
// models and reports timing and cache statistics.
//
// Usage:
//
//	visasim [-proc simple|complex] [-mhz 1000] [-runs 1] [-j NumCPU]
//	        [-trace out.json] [-metrics out.jsonl]
//	        [-cpuprofile cpu.out] [-memprofile mem.out] [-pprof addr]
//	        (-bench name[,name...]|all | file.c)
//	visasim -conform (-gen seed [-keep i,j] [-dump] | -bench name[,name...]|all | file.c)
//
// With -bench it runs embedded C-lab benchmarks — one name, a
// comma-separated list, or "all"; otherwise it runs the given file, a
// timing-safe task bundle (wcet -bundle) or mini-C source. Multiple -runs
// share cache and predictor state, showing cold-versus-steady behaviour.
// The simulations are independent jobs of one plan on the rt experiment
// engine with -j workers; their reports and metrics records are merged in
// benchmark order, so the output is byte-identical for any -j.
//
// -trace writes a Chrome trace-event (catapult) JSON file with one slice
// per run and per sub-task plus cache-miss counter tracks; load it at
// https://ui.perfetto.dev or chrome://tracing (single benchmark only — the
// trace is one shared timeline). -metrics streams one machine-readable
// record per run and per sub-task, then the full counter registry, as
// JSONL. Both outputs use simulated time only and are byte-identical across
// repeated runs.
//
// -cpuprofile/-memprofile write pprof profiles covering the whole run;
// -pprof serves net/http/pprof live for long simulations.
//
// -conform runs the cross-model conformance oracle (internal/conform)
// instead of a simulation: the program is swept through the functional
// machine, the simple pipeline, the complex core's simple mode, and the
// WCET analyzer at every operating point, asserting invariants I1-I4.
// With -gen the program is generated from a seed — the replay path for
// `experiments -campaign conform` reproducers, whose -keep subsets select
// minimized sub-task segments. Exits nonzero on any violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/obs"
	"visa/internal/ooo"
	"visa/internal/rt"
	"visa/internal/simple"
)

// Trace lanes within one task's timeline process.
const (
	tidRun = 1
	tidSub = 2
)

func main() {
	procFlag := flag.String("proc", "complex", "processor model: simple or complex")
	mhz := flag.Int("mhz", 1000, "core frequency in MHz")
	runs := flag.Int("runs", 1, "consecutive task executions (warm caches)")
	bench := flag.String("bench", "", `embedded C-lab benchmark: one name, "a,b,c", or "all"`)
	j := flag.Int("j", runtime.NumCPU(), "parallel workers when simulating multiple benchmarks")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	metricsPath := flag.String("metrics", "", "write per-run/per-sub-task metrics as JSONL")
	injectFlag := flag.String("inject", "",
		"seeded fault plan kind:rate[:cycles[:seed]] (kinds: "+kindNames()+")")
	conformFlag := flag.Bool("conform", false,
		"run the cross-model conformance oracle instead of a simulation")
	genFlag := flag.String("gen", "", "conformance: generate the program from this seed (decimal or 0x hex)")
	keepFlag := flag.String("keep", "", "conformance: keep only these generated sub-task segments (e.g. 0,2)")
	dumpFlag := flag.Bool("dump", false, "conformance: print the generated program source")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	prof, err := obs.StartProfile(obs.ProfileOptions{
		CPUPath: *cpuprofile, MemPath: *memprofile, HTTPAddr: *pprofAddr,
	})
	if err != nil {
		fatal(err)
	}
	profScope = prof
	defer stopProfile()
	if addr := prof.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}

	if *conformFlag || *genFlag != "" {
		runConform(*genFlag, *keepFlag, *bench, *dumpFlag)
		return
	}

	proc, err := rt.ParseProc(*procFlag)
	if err != nil {
		fatal(err)
	}
	var spec *fault.Spec
	if *injectFlag != "" {
		s, err := fault.ParseSpec(*injectFlag)
		if err != nil {
			fatal(err)
		}
		spec = &s
	}

	progs := programs(*bench)
	if len(progs) == 0 {
		fmt.Fprintln(os.Stderr,
			"usage: visasim [-proc simple|complex] [-mhz N] [-runs N] [-j N] [-trace out.json] [-metrics out.jsonl] (-bench name[,name...]|all | file.c)")
		os.Exit(2)
	}
	if len(progs) > 1 && *tracePath != "" {
		fatal(fmt.Errorf("-trace supports a single benchmark (the trace is one shared timeline)"))
	}

	// The engine replays each job's records into sink in plan order, and
	// runs serially when a tracer is attached.
	sink := &obs.Sink{}
	if *tracePath != "" {
		sink.Trace = obs.NewTracer()
	}
	var mf *os.File
	if *metricsPath != "" {
		mf, err = os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		sink.Metrics = obs.NewMetricsWriter(mf)
	}
	plan := &rt.Plan{Name: "visasim", Render: func(r *rt.Report) string {
		var b strings.Builder
		for i, res := range r.Results {
			if len(progs) > 1 {
				fmt.Fprintf(&b, "== %s ==\n", progs[i].Name)
			}
			if text, ok := res.Custom.(string); ok {
				b.WriteString(text)
			}
		}
		return b.String()
	}}
	for _, prog := range progs {
		run := func(s *obs.Sink) (rt.JobResult, error) {
			text, err := runSim(prog, proc, *mhz, *runs, spec, s.T(), s.M())
			return rt.JobResult{Custom: text}, err
		}
		plan.Jobs = append(plan.Jobs, rt.Job{Bench: clab.ByName(prog.Name), Run: run})
	}
	rep, err := (&rt.Engine{Workers: *j, Sink: sink}).Run(plan)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Text)
	if err := rep.Err(); err != nil {
		fatal(err)
	}

	if tr := sink.Trace; tr != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s (load at ui.perfetto.dev)\n", tr.Len(), *tracePath)
	}
	if mw := sink.Metrics; mw != nil {
		if err := mw.Close(); err != nil {
			fatal(err)
		}
		if err := mf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics: %d records -> %s\n", mw.Count(), *metricsPath)
	}
}

// runConform is the -conform entry point: it sweeps each named program
// through the conformance oracle (internal/conform) at every operating
// point under the default paranoid-safe fault specs — the same check, and
// the same derived fault seeds, as one `experiments -campaign conform`
// cell, so a campaign failure replays here with one command.
func runConform(genSeed, keep, bench string, dump bool) {
	type target struct {
		prog      *isa.Program
		faultSeed uint64
	}
	var targets []target
	if genSeed != "" {
		seed, err := strconv.ParseUint(genSeed, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -gen seed %q: %v", genSeed, err))
		}
		g := conform.GenProgram(seed)
		if keep != "" {
			var ks []int
			for _, s := range strings.Split(keep, ",") {
				k, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fatal(fmt.Errorf("bad -keep entry %q: %v", s, err))
				}
				ks = append(ks, k)
			}
			if g, err = g.Subset(ks); err != nil {
				fatal(err)
			}
		}
		if dump {
			fmt.Print(g.Source())
		}
		prog, err := g.Program()
		if err != nil {
			fatal(err)
		}
		targets = append(targets, target{prog, seed})
	} else {
		for _, prog := range programs(bench) {
			targets = append(targets, target{prog, conform.BenchSeed(prog.Name)})
		}
	}
	if len(targets) == 0 {
		fatal(fmt.Errorf("-conform needs -gen <seed>, -bench, or a mini-C file"))
	}

	failed := false
	for _, tg := range targets {
		res, err := conform.Check(tg.prog, conform.Options{
			Faults: conform.DefaultFaults(tg.faultSeed),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d instructions, %d sub-tasks, %d operating points, %d timing runs\n",
			res.Name, res.DynInsts, res.SubTasks, res.Points, res.Runs)
		if len(res.Violations) == 0 {
			fmt.Println("conform: I1-I4 held (exec, simple, OOO simple-mode, WCET agree)")
			continue
		}
		failed = true
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION %s\n", v)
		}
	}
	if failed {
		stopProfile()
		os.Exit(1)
	}
}

// programs resolves the programs the command line names: the -bench list
// (one name, "a,b,c" or "all") or else one positional file, a timing-safe
// task bundle (wcet -bundle) or anything clab.Load accepts. It returns none
// when neither is given.
func programs(bench string) []*isa.Program {
	var args []string
	switch {
	case bench == "all":
		args = clab.Names()
	case bench != "":
		args = strings.Split(bench, ",")
	case flag.NArg() == 1:
		if src, err := os.ReadFile(flag.Arg(0)); err == nil {
			if b, err := core.DecodeBundle(src); err == nil {
				return []*isa.Program{b.Program}
			}
		}
		args = flag.Args()
	}
	progs := make([]*isa.Program, len(args))
	for i, arg := range args {
		prog, err := clab.Load(arg)
		if err != nil {
			fatal(err)
		}
		progs[i] = prog
	}
	return progs
}

// kindNames lists the fault kinds for the -inject usage string.
func kindNames() string {
	var names []string
	for _, k := range fault.Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, " ")
}

// runSim executes one program on one processor model and returns its
// human-readable report. Trace events (tr may be nil) and metrics records
// (mw may be nil) describe the same execution in machine-readable form.
// When spec is non-nil, a fresh injector (same seed per job, so the output
// is reproducible and -j independent) perturbs the timing model.
func runSim(prog *isa.Program, proc rt.Proc, mhz, runs int, spec *fault.Spec, tr *obs.Tracer, mw *obs.MetricsWriter) (string, error) {
	var out strings.Builder
	procName := proc.String()

	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	bus := memsys.NewBus(memsys.Default, mhz)

	reg := obs.NewRegistry()
	ic.RegisterObs(reg, "icache")
	dc.RegisterObs(reg, "dcache")
	bus.RegisterObs(reg, "bus")

	var inj *fault.Injector
	if spec != nil {
		var err error
		inj, err = fault.New(*spec)
		if err != nil {
			return "", err
		}
	}

	var feed func(*exec.DynInst) int64
	var now func() int64
	var rebase func(int64)
	if proc == rt.ProcSimpleFixed {
		p := simple.New(ic, dc, bus)
		feed, now, rebase = p.Feed, p.Now, p.Rebase
		p.RegisterObs(reg, "pipe")
		if inj != nil {
			p.Inject = inj
		}
	} else {
		p := ooo.New(ooo.Config{}, ic, dc, bus)
		feed, now, rebase = p.Feed, p.Now, p.Rebase
		p.RegisterObs(reg, "pipe")
		if inj != nil {
			p.Inject = inj
			p.SimpleEngine().Inject = inj
		}
	}

	taskName := prog.Name
	pid := tr.Pid(taskName + "/" + procName)
	tr.ThreadName(pid, tidRun, "runs")
	tr.ThreadName(pid, tidSub, "sub-tasks")
	toNs := func(c int64) float64 { return float64(c) * 1000 / float64(mhz) }

	m := exec.New(prog)
	baseNs := 0.0 // accumulated time of previous runs (rebase resets the clock)
	for r := 0; r < runs; r++ {
		m.Reset()
		rebase(0)
		if inj.FlushInstance() {
			ic.Flush()
			dc.Flush()
		}
		icPrev, dcPrev := ic.Stats(), dc.Stats()
		curSub, subStart := -1, int64(0)
		closeSub := func(end int64) {
			if curSub < 0 {
				return
			}
			tr.Complete(pid, tidSub, "subtask", fmt.Sprintf("sub-task %d", curSub),
				baseNs+toNs(subStart), toNs(end-subStart),
				obs.A("run", r), obs.A("sub_task", curSub))
			mw.Write(obs.Record{
				obs.F("kind", "subtask"),
				obs.F("task", taskName),
				obs.F("proc", procName),
				obs.F("run", r),
				obs.F("sub_task", curSub),
				obs.F("cycles", end-subStart),
				obs.F("time_ns", toNs(end-subStart)),
			})
		}
		for {
			d, ok, err := m.Step()
			if err != nil {
				return "", err
			}
			if !ok {
				break
			}
			if d.Inst.Op == isa.MARK {
				t := now()
				closeSub(t)
				curSub, subStart = int(d.Inst.Imm), t
			}
			feed(&d)
		}
		cyc := now()
		closeSub(cyc)
		icD, dcD := ic.Stats().Delta(icPrev), dc.Stats().Delta(dcPrev)
		tr.Complete(pid, tidRun, "run", fmt.Sprintf("run %d", r+1),
			baseNs, toNs(cyc),
			obs.A("instructions", m.Seq), obs.A("cycles", cyc),
			obs.A("ipc", float64(m.Seq)/float64(cyc)))
		tr.Counter(pid, "cache misses", baseNs+toNs(cyc),
			obs.A("icache", icD.Misses), obs.A("dcache", dcD.Misses))
		mw.Write(obs.Record{
			obs.F("kind", "run"),
			obs.F("task", taskName),
			obs.F("proc", procName),
			obs.F("run", r),
			obs.F("instructions", m.Seq),
			obs.F("cycles", cyc),
			obs.F("time_ns", toNs(cyc)),
			obs.F("ipc", float64(m.Seq)/float64(cyc)),
			obs.F("icache_misses", icD.Misses),
			obs.F("dcache_misses", dcD.Misses),
		})
		baseNs += toNs(cyc)

		us := toNs(cyc) / 1000
		fmt.Fprintf(&out, "run %d: %d instructions, %d cycles (%.1f us at %d MHz), IPC %.2f\n",
			r+1, m.Seq, cyc, us, mhz, float64(m.Seq)/float64(cyc))
	}
	fmt.Fprintf(&out, "I-cache: %d accesses, %d misses (%.2f%%)\n",
		ic.Stats().Accesses, ic.Stats().Misses, 100*ic.Stats().MissRate())
	fmt.Fprintf(&out, "D-cache: %d accesses, %d misses (%.2f%%)\n",
		dc.Stats().Accesses, dc.Stats().Misses, 100*dc.Stats().MissRate())
	if inj != nil {
		fmt.Fprintf(&out, "faults injected: %d (%s)\n", inj.Count(), inj.Spec())
		mw.Write(obs.Record{
			obs.F("kind", "fault.injected"),
			obs.F("task", taskName),
			obs.F("proc", procName),
			obs.F("count", inj.Count()),
			obs.F("fault", inj.Spec().String()),
		})
	}
	if len(m.Out) > 0 {
		fmt.Fprintf(&out, "out: %v\n", m.Out)
	}
	if len(m.OutF) > 0 {
		fmt.Fprintf(&out, "outf: %v\n", m.OutF)
	}

	for _, s := range reg.Snapshot() {
		mw.Write(obs.Record{
			obs.F("kind", "counter"),
			obs.F("task", taskName),
			obs.F("proc", procName),
			obs.F("name", s.Name),
			obs.F("value", s.Value),
		})
	}
	return out.String(), nil
}

// profScope is the process-wide profiling scope (nil when profiling is
// off); error exits flush it so partial profiles stay loadable.
var profScope *obs.ProfileScope

func stopProfile() {
	if err := profScope.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "visasim: profile:", err)
	}
	profScope = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visasim:", err)
	stopProfile()
	os.Exit(1)
}

// Benchmarks that regenerate each table and figure of the paper's
// evaluation, plus throughput benchmarks for the simulation substrates.
// The experiment benchmarks run at a reduced instance count per iteration
// (full 200-instance regeneration is cmd/experiments' job) and report the
// headline numbers as custom metrics.
package visa_test

import (
	"io"
	"runtime"
	"testing"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/obs"
	"visa/internal/ooo"
	"visa/internal/power"
	"visa/internal/rt"
	"visa/internal/simple"
	"visa/internal/wcet"
)

const benchInstances = 30

// mustProgram compiles the benchmark, failing the benchmark run on error.
func mustProgram(tb testing.TB, b *clab.Benchmark) *isa.Program {
	tb.Helper()
	prog, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkTable3 regenerates the static-analysis/actual-time summary
// (paper Table 3) and reports the key ratios.
func BenchmarkTable3(b *testing.B) {
	var rows []rt.Table3Row
	for i := 0; i < b.N; i++ {
		rep, err := (&rt.Engine{Workers: 1}).Run(rt.Table3Plan(clab.All()))
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		rows = rep.Table3Rows()
	}
	var wcetOverSim, simOverCx float64
	for _, r := range rows {
		wcetOverSim += r.WCETOverSim
		simOverCx += r.SimOverCmplx
	}
	b.ReportMetric(wcetOverSim/float64(len(rows)), "avg-WCET/simple")
	b.ReportMetric(simOverCx/float64(len(rows)), "avg-simple/complex")
}

// BenchmarkFigure2 regenerates the headline power-savings comparison
// (paper Figure 2: 43-61% tight, 22-48% loose) and reports the mean tight
// savings in percent.
func BenchmarkFigure2(b *testing.B) {
	var rows []rt.SavingsRow
	for i := 0; i < b.N; i++ {
		rep, err := (&rt.Engine{Workers: 1}).Run(rt.Figure2Plan(clab.All(), benchInstances))
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		rows = rep.SavingsRows()
	}
	var tight, loose float64
	var nt, nl int
	for _, r := range rows {
		if r.Tight {
			tight += r.Savings
			nt++
		} else {
			loose += r.Savings
			nl++
		}
	}
	b.ReportMetric(100*tight/float64(nt), "tight-savings-%")
	b.ReportMetric(100*loose/float64(nl), "loose-savings-%")
}

// BenchmarkFigure3 regenerates the 1.5x-frequency-advantage what-if
// (paper Figure 3: savings shrink to 10-38% but persist).
func BenchmarkFigure3(b *testing.B) {
	var rows []rt.SavingsRow
	for i := 0; i < b.N; i++ {
		rep, err := (&rt.Engine{Workers: 1}).Run(rt.Figure3Plan(clab.All(), benchInstances))
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		rows = rep.SavingsRows()
	}
	var sum float64
	for _, r := range rows {
		sum += r.Savings
	}
	b.ReportMetric(100*sum/float64(len(rows)), "savings-%")
}

// BenchmarkFigure4 regenerates the misprediction-injection experiment
// (paper Figure 4: savings decline with the misprediction rate; all
// deadlines still met, which Figure4 itself asserts).
func BenchmarkFigure4(b *testing.B) {
	var rows []rt.SavingsRow
	for i := 0; i < b.N; i++ {
		rep, err := (&rt.Engine{Workers: 1}).Run(rt.Figure4Plan(clab.All(), benchInstances))
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		rows = rep.SavingsRows()
	}
	var missed int
	for _, r := range rows {
		missed += r.Complex.MissedTasks
	}
	b.ReportMetric(float64(missed), "missed-checkpoints")
}

// benchmarkRunProcessor drives the complex processor's full periodic
// experiment with the given instrumentation sink. Comparing ObsOff and ObsOn
// bounds the cost of the observability layer; ObsOff versus the pre-obs
// baseline is the disabled-path overhead, which must stay within 2%.
func benchmarkRunProcessor(b *testing.B, sink *obs.Sink) {
	s, err := rt.GetSetup(clab.ByName("cnt"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.RunProcessor(s, rt.ProcComplex, rt.Config{
			Tight: true, Instances: benchInstances, Obs: sink, Label: "bench",
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineViolations != 0 {
			b.Fatal("deadline violated")
		}
	}
}

// BenchmarkRunProcessorObsOff is the disabled instrumentation path: a nil
// sink, so every obs call site is a nil-receiver no-op.
func BenchmarkRunProcessorObsOff(b *testing.B) {
	benchmarkRunProcessor(b, nil)
}

// BenchmarkRunProcessorObsOn runs with every surface attached (tracer,
// metrics to io.Discard with its coalescing counter sink, registry).
func BenchmarkRunProcessorObsOn(b *testing.B) {
	mw := obs.NewMetricsWriter(io.Discard, obs.FormatJSONL)
	benchmarkRunProcessor(b, &obs.Sink{
		Trace:    obs.NewTracer(),
		Metrics:  mw,
		Counters: obs.NewCoalescingSink(mw, obs.CoalesceOptions{}),
		Registry: obs.NewRegistry(),
	})
}

// benchmarkExperimentsAll regenerates the full evaluation (`experiments
// -all -n 20` equivalent) on the given worker count. Comparing the Serial
// and Parallel variants records the wall-clock win of the parallel engine;
// their outputs are byte-identical (TestParallelMatchesSerial asserts it).
func benchmarkExperimentsAll(b *testing.B, workers int) {
	const n = 20
	for i := 0; i < b.N; i++ {
		all := clab.All()
		for _, plan := range []*rt.Plan{
			rt.Table3Plan(all),
			rt.Figure2Plan(all, n),
			rt.Figure3Plan(all, n),
			rt.Figure4Plan(all, n),
		} {
			eng := rt.Engine{Workers: workers}
			rep, err := eng.Run(plan)
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExperimentsAllSerial(b *testing.B)   { benchmarkExperimentsAll(b, 1) }
func BenchmarkExperimentsAllParallel(b *testing.B) { benchmarkExperimentsAll(b, runtime.NumCPU()) }

// feedBenchmark replays one functional execution of the prepared executor
// through a pipeline feeder, streaming the trace in a reused record batch,
// and returns the dynamic instruction count. The executor and batch are
// built by the caller outside the timed loop, so the benchmark measures
// model throughput rather than program compilation and machine construction
// (which used to account for ~107k allocs per reported op). The feeder is a
// type parameter, not a func value: instantiating per concrete pipeline
// makes the per-instruction Feed a direct call, as it is at every real call
// site — an indirect call here was charging the model ~12% harness tax.
func feedBenchmark[P interface{ Feed(*exec.DynInst) int64 }](b *testing.B, m *exec.Machine, batch []exec.DynInst, p P) int64 {
	m.Reset()
	for {
		n, err := m.Fill(batch)
		if err != nil {
			b.Fatal(err)
		}
		for i := range batch[:n] {
			p.Feed(&batch[i])
		}
		if n < len(batch) {
			return m.Seq
		}
	}
}

// BenchmarkFunctionalExecutor measures raw architectural simulation speed.
func BenchmarkFunctionalExecutor(b *testing.B) {
	prog := mustProgram(b, clab.ByName("mm"))
	m := exec.New(prog)
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		n, err := m.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSimplePipeline measures the VISA timing model's throughput.
func BenchmarkSimplePipeline(b *testing.B) {
	ic, dc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
	p := simple.New(ic, dc, memsys.NewBus(memsys.Default, 1000))
	m := exec.New(mustProgram(b, clab.ByName("mm")))
	batch := make([]exec.DynInst, 256)
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rebase(0)
		insts += feedBenchmark(b, m, batch, p)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkComplexPipeline measures the out-of-order timing model's
// throughput.
func BenchmarkComplexPipeline(b *testing.B) {
	ic, dc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
	p := ooo.New(ooo.Config{}, ic, dc, memsys.NewBus(memsys.Default, 1000))
	m := exec.New(mustProgram(b, clab.ByName("mm")))
	batch := make([]exec.DynInst, 256)
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rebase(0)
		insts += feedBenchmark(b, m, batch, p)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkWCETAnalysis measures one full static analysis pass.
func BenchmarkWCETAnalysis(b *testing.B) {
	prog := mustProgram(b, clab.ByName("adpcm"))
	for i := 0; i < b.N; i++ {
		an, err := wcet.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.Analyze(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCETTable measures the table builds an experiment set-up runs
// on a fresh analyzer: the 37-point table, then the Figure 3 table at 1.5x
// every frequency. Passes after the first reuse the penalty-invariant loop
// summaries, which BenchmarkWCETAnalysis's single pass never does.
func BenchmarkWCETTable(b *testing.B) {
	prog := mustProgram(b, clab.ByName("adpcm"))
	boosted := power.Points()
	for i := range boosted {
		boosted[i].FMHz = int(float64(boosted[i].FMHz) * 1.5)
	}
	for i := 0; i < b.N; i++ {
		an, err := wcet.New(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.BuildWCETTable(an); err != nil {
			b.Fatal(err)
		}
		if _, err := core.BuildWCETTableAt(an, boosted); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValueAnalysis measures an analyzer built with the value analysis
// in front (cfg build, absint.Analyze, bound validation, wcet set-up) on the
// two C-lab programs the analysis costs most on.
func BenchmarkValueAnalysis(b *testing.B) {
	for _, name := range []string{"adpcm", "srt"} {
		prog := mustProgram(b, clab.ByName(name))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := wcet.NewWithValueAnalysis(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

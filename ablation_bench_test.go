// Ablation benchmarks for the design choices behind the VISA framework:
// the out-of-order window that creates the slack, the sub-task granularity
// that lets checkpoints exploit it, and the per-sub-task instrumentation
// cost that works against it.
package visa_test

import (
	"fmt"
	"testing"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/minic"
	"visa/internal/ooo"
	"visa/internal/wcet"
)

// mustProgram compiles the benchmark, failing the benchmark run on error.
func mustProgram(tb testing.TB, b *clab.Benchmark) *isa.Program {
	tb.Helper()
	prog, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// BenchmarkAblationWindowSize sweeps the complex core's ROB/IQ sizes on mm:
// the VISA argument only pays off if dynamic scheduling actually buys ILP.
func BenchmarkAblationWindowSize(b *testing.B) {
	type cfg struct {
		name string
		c    ooo.Config
	}
	cfgs := []cfg{
		{"rob16", ooo.Config{ROBSize: 16, IQSize: 8}},
		{"rob32", ooo.Config{ROBSize: 32, IQSize: 16}},
		{"rob64", ooo.Config{ROBSize: 64, IQSize: 32}},
		{"rob128-paper", ooo.Config{}},
		{"rob256", ooo.Config{ROBSize: 256, IQSize: 128}},
	}
	prog := mustProgram(b, clab.ByName("mm"))
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			var cycles int64
			var insts int64
			for i := 0; i < b.N; i++ {
				p := ooo.New(c.c, cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1),
					memsys.NewBus(memsys.Default, 1000))
				m := exec.New(prog)
				for {
					d, ok, err := m.Step()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					p.Feed(&d)
				}
				cycles = p.Now()
				insts = m.Seq
			}
			b.ReportMetric(float64(insts)/float64(cycles), "IPC")
		})
	}
}

// BenchmarkAblationSnippetCost sweeps the MARK snippet cost in the WCET
// bound: the per-sub-task instrumentation the paper charges (§5.2).
func BenchmarkAblationSnippetCost(b *testing.B) {
	prog := mustProgram(b, clab.ByName("cnt"))
	for _, snip := range []int64{0, 12, 48} {
		b.Run(fmt.Sprintf("snippet%d", snip), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				an, err := wcet.New(prog)
				if err != nil {
					b.Fatal(err)
				}
				an.SnippetCycles = snip
				res, err := an.Analyze(1000)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(float64(total), "WCET-cycles")
		})
	}
}

// subTaskProgram builds a balanced task with s sub-tasks over the same
// total work, for the granularity ablation.
func subTaskProgram(b *testing.B, s int) *core.WCETTable {
	b.Helper()
	const totalIters = 1200
	src := "int v[256];\nvoid main() {\n\tint i;\n\tint x = 0;\n"
	per := totalIters / s
	for k := 0; k < s; k++ {
		src += fmt.Sprintf("\t__subtask(%d);\n", k)
		src += fmt.Sprintf("\tfor (i = 0; i < %d; i = i + 1) { x = x + v[i & 255] + i; v[i & 255] = x; }\n", per)
	}
	src += "\t__out(x);\n}\n"
	prog, err := minic.Compile("granularity.c", src)
	if err != nil {
		b.Fatal(err)
	}
	an, err := wcet.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := core.BuildWCETTable(an)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkAblationSubTaskCount sweeps sub-task granularity: more
// checkpoints mean a smaller "assume no work done" penalty per checkpoint
// (EQ 1), letting the solver pick a lower speculative frequency — the
// paper's rationale for balanced sub-tasks (§5.3) — until snippet overhead
// pushes back.
func BenchmarkAblationSubTaskCount(b *testing.B) {
	for _, s := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("subtasks%d", s), func(b *testing.B) {
			var fspec int
			for i := 0; i < b.N; i++ {
				tbl := subTaskProgram(b, s)
				deadline := tbl.TotalTimeNs(len(tbl.Points)-1) * 1.35
				params := core.Params{DeadlineNs: deadline, OvhdNs: 1500}
				// PETs at a complex-like 3x speedup over the bound.
				pets := make([]float64, tbl.NumSubTasks())
				last := len(tbl.Points) - 1
				for k := range pets {
					pets[k] = float64(tbl.Cycles[last][k]) / 3
				}
				plan, ok := core.Solve(core.SpecVISA, params, tbl, pets)
				if !ok {
					b.Fatal("no plan")
				}
				fspec = plan.Spec.FMHz
			}
			b.ReportMetric(float64(fspec), "fspec-MHz")
		})
	}
}

package wcet_test

import (
	"fmt"
	"slices"
	"testing"

	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/core"
	"visa/internal/isa"
	"visa/internal/minic"
	"visa/internal/power"
	"visa/internal/wcet"
)

// analyzerConfig builds an analyzer in one of the configurations the
// experiments use.
type analyzerConfig struct {
	name  string
	build func(t *testing.T, prog *isa.Program) *wcet.Analyzer
}

var analyzerConfigs = []analyzerConfig{
	{"profile-pad", func(t *testing.T, prog *isa.Program) *wcet.Analyzer {
		an, err := wcet.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := an.SetDCachePad(wcet.ProfilePad(t, prog)); err != nil {
			t.Fatal(err)
		}
		return an
	}},
	{"static-dcache", func(t *testing.T, prog *isa.Program) *wcet.Analyzer {
		an, err := wcet.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.UseStaticDCache(); err != nil {
			t.Fatal(err)
		}
		return an
	}},
	{"value-static-dcache", func(t *testing.T, prog *isa.Program) *wcet.Analyzer {
		an, _, err := wcet.NewWithValueAnalysis(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.UseStaticDCache(); err != nil {
			t.Fatal(err)
		}
		return an
	}},
}

// boostedPoints is the Figure 3 operating-point list: every frequency
// 1.5x, as rt.Setup.BoostedTable builds it.
func boostedPoints() []power.OperatingPoint {
	pts := power.Points()
	for i := range pts {
		pts[i].FMHz = int(float64(pts[i].FMHz) * 1.5)
	}
	return pts
}

// checkRows compares each table row with what a fresh copy of an computes
// at that frequency alone. A non-nil only restricts the rows checked to
// those frequencies.
func checkRows(t *testing.T, label string, tbl *core.WCETTable, an *wcet.Analyzer, only []int) {
	t.Helper()
	for i, pt := range tbl.Points {
		if only != nil && !slices.Contains(only, pt.FMHz) {
			continue
		}
		res, err := an.Fresh(t).Analyze(pt.FMHz)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tbl.Cycles[i], res.SubTasks) {
			t.Errorf("%s at %d MHz: table row %v, fresh analyzer %v", label, pt.FMHz, tbl.Cycles[i], res.SubTasks)
		}
	}
}

// TestTableRowsMatchFreshAnalyzer: reusing penalty-invariant loop
// summaries across operating points must not change a single cycle. Every
// row of the 37-point table and of the 1.5x table equals what a fresh
// analyzer, with no memoized state, computes at that frequency alone.
// adpcm's fresh passes are the expensive ones, so beyond its profile-pad
// table it is checked at a few frequencies only.
func TestTableRowsMatchFreshAnalyzer(t *testing.T) {
	adpcmSample := []int{100, 125, 575, 1000, 1500}
	for _, b := range clab.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range analyzerConfigs {
			t.Run(b.Name+"/"+c.name, func(t *testing.T) {
				var tableOnly, boostedOnly []int
				if b.Name == "adpcm" {
					boostedOnly = adpcmSample
					if c.name != "profile-pad" {
						tableOnly = adpcmSample
					}
				}
				an := c.build(t, prog)
				tbl, err := core.BuildWCETTable(an)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, "table", tbl, an, tableOnly)
				boosted, err := core.BuildWCETTableAt(an, boostedPoints())
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, "1.5x table", boosted, an, boostedOnly)
			})
		}
	}
}

// callInLoopSrc calls a function from a loop body, so under the default
// D-cache stand-in the loop's steady state depends on the penalty only
// through the callee's summary; its second loop's data set overflows the
// D-cache, so under the static analysis every data reference misses.
const callInLoopSrc = `
int a[10000];
int b[10000];
int f(int x) {
	return x * 3 + 1;
}
void main() {
	int i;
	int s = 0;
	__subtask(0);
	for (i = 0; i < 64; i = i + 1) {
		s = s + f(i);
	}
	__subtask(1);
	for (i = 0; i < 64; i = i + 1) {
		s = s + a[i * 300] + b[i * 300];
	}
	__out(s);
}`

// TestGeneratedProgramsMatchFreshAnalyzer extends the exactness check to
// shapes the C-lab kernels lack (callees inside loops, always-missing data
// references) and to a seeded corpus of generated conformance programs,
// with and without the static D-cache analysis.
func TestGeneratedProgramsMatchFreshAnalyzer(t *testing.T) {
	progs := []*isa.Program{minic.MustCompile("callinloop.c", callInLoopSrc)}
	for seed := uint64(1); seed <= 300; seed++ {
		prog, err := conform.GenProgram(seed).Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	freqs := []int{100, 325, 550, 775, 1000, 1500}
	for _, prog := range progs {
		for _, static := range []bool{false, true} {
			an, err := wcet.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			if static {
				if _, err := an.UseStaticDCache(); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range freqs {
				got, err := an.Analyze(f)
				if err != nil {
					t.Fatal(err)
				}
				want, err := an.Fresh(t).Analyze(f)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.SubTasks, want.SubTasks) {
					t.Errorf("%s (static D-cache %v) at %d MHz: reused %v, fresh %v",
						prog.Name, static, f, got.SubTasks, want.SubTasks)
				}
			}
		}
	}
}

// TestStaticDCacheResetsReusedSummaries: switching an analyzer that has
// already built a table to the static D-cache analysis must discard every
// memoized summary, including the penalty-invariant ones. The oversized
// program degrades the static analysis to always-miss data references, so
// a stale summary would show up as a different table.
func TestStaticDCacheResetsReusedSummaries(t *testing.T) {
	big := minic.MustCompile("big.c", `
int a[10000];
int b[10000];
void main() {
	int i;
	int s = 0;
	__subtask(0);
	for (i = 0; i < 64; i = i + 1) {
		s = s + a[i * 300] + b[i * 300];
	}
	__out(s);
}`)
	progs := []*isa.Program{big}
	for _, b := range clab.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	static := analyzerConfigs[1]
	for _, prog := range progs {
		an := analyzerConfigs[0].build(t, prog)
		if _, err := core.BuildWCETTable(an); err != nil {
			t.Fatal(err)
		}
		if _, err := an.UseStaticDCache(); err != nil {
			t.Fatal(err)
		}
		got, err := core.BuildWCETTable(an)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BuildWCETTable(static.build(t, prog))
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range got.Points {
			if !slices.Equal(got.Cycles[i], want.Cycles[i]) {
				t.Errorf("%s at %d MHz: rebuilt row %v, fresh static-D-cache row %v",
					prog.Name, pt.FMHz, got.Cycles[i], want.Cycles[i])
			}
		}
	}
}

// TestTreeWalkMatchesPerPath: walking a path set as a prefix tree, with the
// engine checkpointed at each branch, must time every path exactly as a run
// of that path alone on a fresh engine would. Every phase of the six
// benchmarks (plain and with value analysis) is checked at the penalty of
// every point of the table and of the 1.5x table, and so is every phase of
// a seeded corpus of generated programs, with and without the static
// D-cache analysis. adpcm's reference is the expensive part (about 20 s of
// CPU), so with -short it is checked at a few frequencies only.
func TestTreeWalkMatchesPerPath(t *testing.T) {
	var freqs []int
	for _, pts := range [][]power.OperatingPoint{power.Points(), boostedPoints()} {
		for _, pt := range pts {
			freqs = append(freqs, pt.FMHz)
		}
	}
	for _, b := range clab.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		bfreqs := freqs
		if b.Name == "adpcm" && testing.Short() {
			bfreqs = []int{100, 125, 575, 1000, 1500}
		}
		for _, value := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/value=%v", b.Name, value), func(t *testing.T) {
				t.Parallel()
				var an *wcet.Analyzer
				if value {
					an, _, err = wcet.NewWithValueAnalysis(prog)
				} else {
					an, err = wcet.New(prog)
				}
				if err != nil {
					t.Fatal(err)
				}
				an.CheckTreeWalk(t, bfreqs)
			})
		}
	}

	progs := []*isa.Program{minic.MustCompile("callinloop.c", callInLoopSrc)}
	for seed := uint64(1); seed <= 100; seed++ {
		prog, err := conform.GenProgram(seed).Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, prog := range progs {
		for _, static := range []bool{false, true} {
			an, err := wcet.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			if static {
				if _, err := an.UseStaticDCache(); err != nil {
					t.Fatal(err)
				}
			}
			an.CheckTreeWalk(t, freqs)
		}
	}
}

// BenchmarkBuildWCETTable times the 37-point WCET table of each C-lab
// program, each iteration on a fresh analyzer: the per-program layer cost
// of rt.NewSetup's table build. Analyzer construction is not timed.
func BenchmarkBuildWCETTable(b *testing.B) {
	for _, bench := range clab.All() {
		prog, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				an, err := wcet.New(prog)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := core.BuildWCETTable(an); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package rt

import (
	"testing"

	"visa/internal/clab"
)

const testInstances = 40

// TestDeadlinesAlwaysMet is the system-level safety property (paper §6.2:
// "even though mispredictions occur, all deadlines are safely met"): across
// every benchmark, deadline setting, and processor, no instance may miss
// its hard deadline.
func TestDeadlinesAlwaysMet(t *testing.T) {
	for _, b := range clab.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			s, err := GetSetup(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, tight := range []bool{true, false} {
				for _, proc := range []Proc{ProcComplex, ProcSimpleFixed} {
					res, err := RunProcessor(s, proc, Config{
						Tight: tight, Instances: testInstances,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.DeadlineViolations != 0 {
						t.Errorf("tight=%v %s: %d deadline violations (UNSAFE)",
							tight, res.Name, res.DeadlineViolations)
					}
				}
			}
		})
	}
}

// TestFlushInjectionStillSafe reproduces Figure 4's safety claim: flushing
// caches and predictors induces missed checkpoints on the complex core, the
// core falls back to simple mode, and every deadline is still met.
func TestFlushInjectionStillSafe(t *testing.T) {
	anyMissed := false
	for _, name := range []string{"cnt", "lms", "srt"} {
		row, err := RunComparison(clab.ByName(name), Config{
			Tight: true, Instances: testInstances, FlushTasks: testInstances * 3 / 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if row.Complex.DeadlineViolations != 0 {
			t.Errorf("%s: deadline violated under misprediction injection", name)
		}
		if row.Complex.MissedTasks > 0 {
			anyMissed = true
			if row.Complex.SimpleModeTasks == 0 {
				t.Errorf("%s: checkpoints missed but simple mode never engaged", name)
			}
		}
	}
	if !anyMissed {
		t.Error("flush injection induced no missed checkpoints in any benchmark; Figure 4 cannot be reproduced")
	}
}

// TestFlushReducesSavings: the decline in power savings should track the
// injected misprediction rate (Figure 4's trend).
func TestFlushReducesSavings(t *testing.T) {
	base, err := RunComparison(clab.ByName("srt"), Config{Tight: true, Instances: testInstances})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := RunComparison(clab.ByName("srt"), Config{
		Tight: true, Instances: testInstances, FlushTasks: testInstances * 3 / 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushed.Complex.MissedTasks == 0 {
		t.Skip("no missed checkpoints induced on srt at this scale")
	}
	if flushed.Savings >= base.Savings {
		t.Errorf("savings with 30%% mispredicted tasks (%.1f%%) not below baseline (%.1f%%)",
			flushed.Savings*100, base.Savings*100)
	}
}

// TestSavingsShape checks the headline Figure 2 trends at reduced scale:
// positive savings everywhere, tight >= loose - small tolerance, and the
// complex core running at much lower frequency than simple-fixed.
func TestSavingsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"cnt", "fft"} {
		tight, err := RunComparison(clab.ByName(name), Config{Tight: true, Instances: testInstances})
		if err != nil {
			t.Fatal(err)
		}
		loose, err := RunComparison(clab.ByName(name), Config{Tight: false, Instances: testInstances})
		if err != nil {
			t.Fatal(err)
		}
		if tight.Savings < 0.15 {
			t.Errorf("%s tight savings %.1f%% too low", name, tight.Savings*100)
		}
		if loose.Savings < 0.05 {
			t.Errorf("%s loose savings %.1f%% too low", name, loose.Savings*100)
		}
		if tight.Complex.FinalSpecMHz >= tight.Simple.FinalSpecMHz {
			t.Errorf("%s: complex (%d MHz) should run far below simple-fixed (%d MHz)",
				name, tight.Complex.FinalSpecMHz, tight.Simple.FinalSpecMHz)
		}
	}
}

// TestStandbyIncreasesSavings mirrors the paper's note that savings are
// even higher with 10% standby power.
func TestStandbyIncreasesSavings(t *testing.T) {
	base, err := RunComparison(clab.ByName("cnt"), Config{Tight: true, Instances: testInstances})
	if err != nil {
		t.Fatal(err)
	}
	stby, err := RunComparison(clab.ByName("cnt"), Config{Tight: true, Instances: testInstances, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	if stby.Savings <= base.Savings {
		t.Errorf("standby savings %.1f%% not above base %.1f%%", stby.Savings*100, base.Savings*100)
	}
}

// TestFrequencyAdvantageReducesSavings is Figure 3's trend: granting
// simple-fixed 1.5x frequency at equal voltage shrinks but does not erase
// the complex core's advantage.
func TestFrequencyAdvantageReducesSavings(t *testing.T) {
	base, err := RunComparison(clab.ByName("fft"), Config{Tight: true, Instances: testInstances})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := RunComparison(clab.ByName("fft"), Config{
		Tight: true, Instances: testInstances, FreqAdvantage: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Savings >= base.Savings {
		t.Errorf("1.5x-advantage savings %.1f%% not below base %.1f%%",
			adv.Savings*100, base.Savings*100)
	}
	if adv.Complex.DeadlineViolations+adv.Simple.DeadlineViolations != 0 {
		t.Error("deadline violated in frequency-advantage run")
	}
}

// TestDeterminism: the whole pipeline — simulation, adaptation, accounting —
// must be bit-reproducible.
func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		row, err := RunComparison(clab.ByName("lms"), Config{Tight: true, Instances: 25})
		if err != nil {
			t.Fatal(err)
		}
		return row.Complex.Energy, row.Simple.Energy
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("nondeterministic energies: %v/%v vs %v/%v", c1, s1, c2, s2)
	}
}

// TestTable3Shape verifies the qualitative Table 3 findings (§6.1).
func TestTable3Shape(t *testing.T) {
	rep, err := (&Engine{Workers: 1}).Run(Table3Plan(clab.All()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rows := rep.Table3Rows()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var srtRatio, maxOther float64
	for _, r := range rows {
		if r.WCETOverSim < 1.0 {
			t.Errorf("%s: WCET/simple = %.2f < 1 (UNSAFE bound)", r.Name, r.WCETOverSim)
		}
		if r.WCETOverSim > 3.2 {
			t.Errorf("%s: WCET/simple = %.2f too loose", r.Name, r.WCETOverSim)
		}
		if r.SimOverCmplx < 1.8 {
			t.Errorf("%s: simple/complex = %.2f, complex core not exploiting ILP", r.Name, r.SimOverCmplx)
		}
		if r.Name == "srt" {
			srtRatio = r.WCETOverSim
		} else if r.WCETOverSim > maxOther {
			maxOther = r.WCETOverSim
		}
		if r.TightNs >= r.LooseNs {
			t.Errorf("%s: tight deadline not below loose", r.Name)
		}
	}
	// The paper's §6.1 singles out srt (bubblesort) as the loosest bound,
	// for structural reasons our kernel preserves.
	if srtRatio <= maxOther {
		t.Errorf("srt ratio %.2f should exceed all others (max %.2f)", srtRatio, maxOther)
	}
}

// TestHistogramPolicyRuns exercises the histogram PET policy end to end.
func TestHistogramPolicyRuns(t *testing.T) {
	row, err := RunComparison(clab.ByName("cnt"), Config{
		Tight: true, Instances: testInstances, Policy: PETHistogram, HistogramMiss: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Complex.DeadlineViolations != 0 {
		t.Error("histogram policy violated a deadline")
	}
}

// TestInputVariationStillSafe: varying input data across instances changes
// execution times; deadlines must hold regardless.
func TestInputVariationStillSafe(t *testing.T) {
	for _, name := range []string{"srt", "fft"} {
		row, err := RunComparison(clab.ByName(name), Config{
			Tight: true, Instances: testInstances, VaryInputSeeds: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if row.Complex.DeadlineViolations+row.Simple.DeadlineViolations != 0 {
			t.Errorf("%s: deadline violated under input variation", name)
		}
	}
}

func TestFlushSchedule(t *testing.T) {
	s := flushSchedule(10, 0, 0)
	for _, f := range s {
		if f {
			t.Fatal("zero flushes requested")
		}
	}
	s = flushSchedule(10, 3, 0)
	n := 0
	for _, f := range s {
		if f {
			n++
		}
	}
	if n != 3 {
		t.Errorf("flushes = %d, want 3", n)
	}
	s = flushSchedule(5, 99, 0)
	n = 0
	for _, f := range s {
		if f {
			n++
		}
	}
	if n != 5 {
		t.Errorf("over-request should clamp to 5, got %d", n)
	}
}

// TestBoostedTable: Figure 3's table must shift frequencies, not WCET work.
func TestBoostedTable(t *testing.T) {
	s, err := GetSetup(clab.ByName("cnt"))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := s.BoostedTable(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Points[0].FMHz != 150 || bt.Points[len(bt.Points)-1].FMHz != 1500 {
		t.Errorf("boosted frequencies wrong: %v..%v", bt.Points[0], bt.Points[len(bt.Points)-1])
	}
	if bt.Points[0].Volts != s.Table.Points[0].Volts {
		t.Error("boost must keep equal voltage")
	}
	// Same work completes faster at boosted frequency.
	if bt.TotalTimeNs(0) >= s.Table.TotalTimeNs(0) {
		t.Error("boosted table not faster")
	}
}

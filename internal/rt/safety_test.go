package rt

import (
	"bytes"
	"testing"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/obs"
)

// runCampaign executes one safety campaign configuration and returns the
// report plus its JSONL metrics stream.
func runCampaign(t testing.TB, benches []*clab.Benchmark, c SafetyCampaign, workers int) (*Report, string) {
	t.Helper()
	var buf bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&buf, obs.FormatJSONL)}
	rep, err := (&Engine{Workers: workers, Sink: sink}).Run(SafetyCampaignPlan(benches, c))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, buf.String()
}

// TestSafetyCampaignSmoke is the tier-fault smoke: two benchmarks, one
// adversarial and one paranoid fault kind, every cell holding the safety
// property. Kept small enough for CI.
func TestSafetyCampaignSmoke(t *testing.T) {
	benches := []*clab.Benchmark{clab.ByName("cnt"), clab.ByName("srt")}
	c := SafetyCampaign{
		Kinds:     []fault.Kind{fault.BranchPoison, fault.CacheFlush},
		Rates:     []int{150},
		Instances: 6,
		Seed:      42,
	}
	rep, _ := runCampaign(t, benches, c, 4)
	if err := rep.Err(); err != nil {
		t.Fatalf("safety property broken: %v", err)
	}
	rows := rep.SafetyRows()
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, row := range rows {
		if row.Complex.Violations != 0 || row.Simple.Violations != 0 {
			t.Errorf("%s [%s]: deadline violations survived the job assertions", row.Bench, &row.Spec)
		}
		if row.Simple.WCETExceed != 0 {
			t.Errorf("%s [%s]: WCET exceedance on the safety anchor", row.Bench, &row.Spec)
		}
	}
}

// TestSafetyCampaignFull sweeps every fault kind across all six benchmarks
// on 8 workers and cross-checks the report's bookkeeping against the
// coalesced counters: every watchdog-detected overrun must be counted as a
// watchdog.fired, and fault volumes must match.
func TestSafetyCampaignFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep in -short mode")
	}
	c := SafetyCampaign{Rates: []int{200}, Instances: 8, Seed: 7}
	rep, metrics := runCampaign(t, clab.All(), c, 8)
	if err := rep.Err(); err != nil {
		t.Fatalf("safety property broken: %v", err)
	}
	rows := rep.SafetyRows()
	if want := 6 * len(fault.Kinds()); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row.Complex.Missed != row.Complex.SimpleModeTasks {
			t.Errorf("%s [%s]: overrun without a simple-mode switch", row.Bench, &row.Spec)
		}
	}
	checkSafetyCounters(t, rep, metrics, c.Instances)
}

// TestSafetyDeterminism: the same campaign seed reproduces the sweep
// byte-for-byte — report text and metrics — across runs and worker counts.
func TestSafetyDeterminism(t *testing.T) {
	benches := []*clab.Benchmark{clab.ByName("cnt")}
	c := SafetyCampaign{
		Kinds:     []fault.Kind{fault.DCacheMiss, fault.MemJitter},
		Rates:     []int{300},
		Instances: 6,
		Seed:      99,
	}
	rep1, metrics1 := runCampaign(t, benches, c, 1)
	rep8, metrics8 := runCampaign(t, benches, c, 8)
	if rep1.Text != rep8.Text {
		t.Errorf("campaign text differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			rep1.Text, rep8.Text)
	}
	if metrics1 != metrics8 {
		t.Error("campaign metrics differ between -j 1 and -j 8")
	}
	repAgain, metricsAgain := runCampaign(t, benches, c, 8)
	if rep8.Text != repAgain.Text || metrics8 != metricsAgain {
		t.Error("same campaign seed did not reproduce the sweep byte-for-byte")
	}
	if len(rep1.SafetyRows()) != 2 {
		t.Fatalf("%d rows, want 2", len(rep1.SafetyRows()))
	}
}

// TestSafetyJobRequiresSpec: a JobSafety without a fault plan is a
// configuration bug and must fail loudly.
func TestSafetyJobRequiresSpec(t *testing.T) {
	if _, err := runSafetyJob(clab.ByName("cnt"), Config{Tight: true, Instances: 2}); err == nil {
		t.Error("safety job without a fault spec accepted")
	}
}

// FuzzFaultSpec drives randomized-but-valid fault specs through both
// processors and asserts the invariants that hold for *every* spec: the
// run completes, no deadline is ever missed, the paranoid injector never
// pushes a simple-fixed sub-task past its WCET bound, and every complex
// overrun is answered by a simple-mode switch.
func FuzzFaultSpec(f *testing.F) {
	f.Add(uint8(0), uint16(100), uint16(64), uint64(1))
	f.Add(uint8(4), uint16(1000), uint16(128), uint64(0xdeadbeef))
	f.Add(uint8(5), uint16(500), uint16(0), uint64(7))
	f.Fuzz(func(t *testing.T, kindRaw uint8, rateRaw, cycRaw uint16, seed uint64) {
		kinds := fault.Kinds()
		spec := fault.Spec{
			Kind:   kinds[int(kindRaw)%len(kinds)],
			Rate:   int(rateRaw) % (fault.RateScale + 1),
			Cycles: int64(cycRaw) % (fault.MaxCycles + 1),
			Seed:   seed,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("constructed spec invalid: %v", err)
		}
		s, err := GetSetup(clab.ByName("cnt"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Tight: true, Instances: 4, Fault: &spec}
		cx, err := RunProcessor(s, ProcComplex, cfg)
		if err != nil {
			t.Fatalf("[%s] complex: %v", &spec, err)
		}
		sf, err := RunProcessor(s, ProcSimpleFixed, cfg)
		if err != nil {
			t.Fatalf("[%s] simple-fixed: %v", &spec, err)
		}
		if cx.DeadlineViolations != 0 || sf.DeadlineViolations != 0 {
			t.Errorf("[%s] deadline violations: complex=%d simple=%d",
				&spec, cx.DeadlineViolations, sf.DeadlineViolations)
		}
		if sf.WCETExceedances != 0 {
			t.Errorf("[%s] %d WCET exceedances on the safety anchor", &spec, sf.WCETExceedances)
		}
		if cx.MissedTasks != cx.SimpleModeTasks {
			t.Errorf("[%s] %d overruns but %d simple-mode switches",
				&spec, cx.MissedTasks, cx.SimpleModeTasks)
		}
	})
}

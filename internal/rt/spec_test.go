package rt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"unicode/utf8"

	"visa/internal/clab"
	"visa/internal/fault"
)

func TestJobSpecMaterialize(t *testing.T) {
	js := JobSpec{
		Version: SpecVersion,
		Bench:   "cnt",
		Kind:    "comparison",
		Config:  ConfigSpec{Tight: true, Instances: 5, Policy: "histogram", HistogramMiss: 0.1, Label: "x"},
	}
	if err := js.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	job, err := js.Job()
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if job.Bench.Name != "cnt" || job.Kind != JobComparison {
		t.Errorf("materialized job = %+v", job)
	}
	if job.Config.Policy != PETHistogram || !job.Config.Tight || job.Config.Instances != 5 {
		t.Errorf("materialized config = %+v", job.Config)
	}
}

func TestJobSpecRejections(t *testing.T) {
	base := JobSpec{Version: SpecVersion, Bench: "cnt", Config: ConfigSpec{Label: "x"}}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"bad version", func(j *JobSpec) { j.Version = 2 }},
		{"unknown bench", func(j *JobSpec) { j.Bench = "nope" }},
		{"unknown kind", func(j *JobSpec) { j.Kind = "nope" }},
		{"unknown policy", func(j *JobSpec) { j.Config.Policy = "nope" }},
		{"bad fault", func(j *JobSpec) { j.Config.Fault = "not-a-spec" }},
		{"negative instances", func(j *JobSpec) { j.Config.Instances = -1 }},
		{"safety without fault", func(j *JobSpec) { j.Kind = "safety" }},
	}
	for _, tc := range cases {
		js := base
		tc.mutate(&js)
		if err := js.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base spec must validate, got %v", err)
	}
}

func TestConfigSpecRoundTripThroughConfig(t *testing.T) {
	spec := ConfigSpec{
		Policy: "histogram", Tight: true, Standby: true, FreqAdvantage: 1.5,
		FlushTasks: 2, Instances: 10, HistogramMiss: 0.25, VaryInputSeeds: true,
		Fault: "mem-jitter:50:0:7", CycleBudget: 123, Label: "rt",
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got := ConfigSpecOf(cfg); got != spec {
		t.Errorf("ConfigSpecOf(Config()) = %+v, want %+v", got, spec)
	}
}

func TestPlanSpecKinds(t *testing.T) {
	for _, tc := range []struct {
		spec PlanSpec
		name string
		jobs int
	}{
		{PlanSpec{Version: 1, Kind: PlanTable3, Benches: []string{"cnt", "srt"}}, "table3", 2},
		{PlanSpec{Version: 1, Kind: PlanFig2, Benches: []string{"cnt"}, Instances: 5}, "fig2", 4},
		{PlanSpec{Version: 1, Kind: PlanFig3, Benches: []string{"cnt"}, Instances: 5}, "fig3", 2},
		{PlanSpec{Version: 1, Kind: PlanFig4, Benches: []string{"cnt"}, Instances: 10}, "fig4", 4},
		{PlanSpec{Version: 1, Kind: PlanSafety, Benches: []string{"cnt"},
			Faults: []string{"mem-jitter"}, Rates: []int{50}, Seed: 3, Instances: 5}, "safety", 1},
	} {
		plan, err := tc.spec.Plan()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if plan.Name != tc.name || len(plan.Jobs) != tc.jobs {
			t.Errorf("%s: plan %q with %d jobs, want %q/%d",
				tc.name, plan.Name, len(plan.Jobs), tc.name, tc.jobs)
		}
	}
}

func TestPlanSpecCustom(t *testing.T) {
	spec := PlanSpec{
		Version: 1, Kind: PlanCustom, Name: "mine",
		Jobs: []JobSpec{
			{Version: 1, Bench: "cnt", Kind: "table3"},
			{Version: 1, Bench: "srt", Config: ConfigSpec{Instances: 5, Label: "srt5"}},
		},
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "mine" || len(plan.Jobs) != 2 || plan.Render == nil {
		t.Fatalf("custom plan = %+v", plan)
	}
	// A custom plan runs end to end and renders through the generic
	// renderer deterministically.
	rep, err := (&Engine{Workers: 2}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Table3Rows()) != 1 || len(rep.SavingsRows()) != 1 {
		t.Errorf("rows: table3=%d savings=%d", len(rep.Table3Rows()), len(rep.SavingsRows()))
	}
	if rep.Text == "" || !bytes.Contains([]byte(rep.Text), []byte("POWER COMPARISON")) {
		t.Errorf("generic render missing sections:\n%s", rep.Text)
	}
}

func TestPlanSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		spec PlanSpec
	}{
		{"bad version", PlanSpec{Version: 9, Kind: PlanTable3}},
		{"unknown kind", PlanSpec{Version: 1, Kind: "nope"}},
		{"unknown bench", PlanSpec{Version: 1, Kind: PlanFig2, Benches: []string{"nope"}}},
		{"negative instances", PlanSpec{Version: 1, Kind: PlanFig2, Instances: -1}},
		{"jobs on named kind", PlanSpec{Version: 1, Kind: PlanTable3,
			Jobs: []JobSpec{{Version: 1, Bench: "cnt"}}}},
		{"custom without name", PlanSpec{Version: 1, Kind: PlanCustom,
			Jobs: []JobSpec{{Version: 1, Bench: "cnt"}}}},
		{"custom without jobs", PlanSpec{Version: 1, Kind: PlanCustom, Name: "x"}},
		{"bad fault kind", PlanSpec{Version: 1, Kind: PlanSafety, Faults: []string{"nope"}}},
		{"rate out of range", PlanSpec{Version: 1, Kind: PlanSafety, Rates: []int{5000}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestPlanSpecEncodeDecodeExact(t *testing.T) {
	spec := PlanSpec{
		Version: 1, Kind: PlanCustom, Name: "mine",
		Jobs: []JobSpec{{Version: 1, Bench: "cnt", Kind: "safety",
			Config: ConfigSpec{Fault: "mem-jitter:50:0:1", Instances: 5, Label: "s"}}},
	}
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePlanSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	re, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Errorf("encode(decode(x)) != x:\n%s\n%s", enc, re)
	}
	if _, err := DecodePlanSpec([]byte(`{"version":1,"kind":"table3","typo":true}`)); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unknown field: err = %v, want ErrInvalidSpec", err)
	}
}

// FuzzJobSpecRoundTrip pins the canonical-encoding property the service
// relies on: for any JobSpec value, encode(decode(encode(s))) == encode(s)
// byte for byte.
func FuzzJobSpecRoundTrip(f *testing.F) {
	f.Add(1, "cnt", "comparison", "last-n", true, false, 1.5, 3, 40, 0.1, true, "mem-jitter:50:0:7", int64(99), "label")
	f.Add(1, "srt", "safety", "histogram", false, true, 0.0, 0, 0, 0.0, false, "", int64(0), "")
	f.Add(7, "", "nope", "x", false, false, -1.0, -2, -3, math.Inf(1), true, ":::", int64(-1), "Ω")
	f.Fuzz(func(t *testing.T, version int, bench, kind, policy string,
		tight, standby bool, freqAdv float64, flush, instances int,
		miss float64, vary bool, faultStr string, budget int64, label string) {
		if math.IsNaN(freqAdv) || math.IsInf(freqAdv, 0) || math.IsNaN(miss) || math.IsInf(miss, 0) {
			t.Skip("JSON cannot carry NaN/Inf")
		}
		for _, s := range []string{bench, kind, policy, faultStr, label} {
			if !utf8.ValidString(s) {
				// JSON strings are UTF-8; a spec holding invalid UTF-8 has
				// no canonical wire form (Marshal substitutes U+FFFD).
				t.Skip("invalid UTF-8 input")
			}
		}
		s := JobSpec{Version: version, Bench: bench, Kind: kind, Config: ConfigSpec{
			Policy: policy, Tight: tight, Standby: standby, FreqAdvantage: freqAdv,
			FlushTasks: flush, Instances: instances, HistogramMiss: miss,
			VaryInputSeeds: vary, Fault: faultStr, CycleBudget: budget, Label: label,
		}}
		enc, err := s.Encode()
		if err != nil {
			t.Skip("unencodable input (invalid UTF-8 strings re-encode lossily)")
		}
		dec, err := DecodeJobSpec(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, enc)
		}
		re, err := dec.Encode()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("encode(decode(x)) != x:\n%s\n%s", enc, re)
		}
	})
}

// TestSafetyPlanSpecSeedsMatchCampaign: a PlanSpec-built safety plan and a
// directly-built campaign produce identical job structure — the spec layer
// adds no hidden knobs.
func TestSafetyPlanSpecSeedsMatchCampaign(t *testing.T) {
	spec := PlanSpec{Version: 1, Kind: PlanSafety, Benches: []string{"cnt"},
		Faults: []string{"cache-flush"}, Rates: []int{50}, Seed: 11, Instances: 5}
	fromSpec, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	direct := SafetyCampaignPlan([]*clab.Benchmark{clab.ByName("cnt")}, SafetyCampaign{
		Kinds: []fault.Kind{fault.CacheFlush}, Rates: []int{50}, Seed: 11, Instances: 5})
	if len(fromSpec.Jobs) != len(direct.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(fromSpec.Jobs), len(direct.Jobs))
	}
	a, b := fromSpec.Jobs[0].Config, direct.Jobs[0].Config
	if *a.Fault != *b.Fault || a.Instances != b.Instances || a.Label != b.Label {
		t.Errorf("configs differ:\n%+v\n%+v", a, b)
	}
}

package rt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
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
		Config:  Config{Tight: true, Instances: 5, Policy: PETHistogram, HistogramMiss: 0.1, Label: "x"},
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
	base := JobSpec{Version: SpecVersion, Bench: "cnt", Config: Config{Label: "x"}}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"bad version", func(j *JobSpec) { j.Version = 2 }},
		{"unknown bench", func(j *JobSpec) { j.Bench = "nope" }},
		{"unknown kind", func(j *JobSpec) { j.Kind = "nope" }},
		{"unknown policy", func(j *JobSpec) { j.Config.Policy = PETPolicy(99) }},
		{"bad fault", func(j *JobSpec) { j.Config.Fault = &fault.Spec{Kind: fault.MemJitter, Rate: 5000} }},
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
			{Version: 1, Bench: "srt", Config: Config{Instances: 5, Label: "srt5"}},
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
			Config: Config{Fault: &fault.Spec{Kind: fault.MemJitter, Rate: 50, Seed: 1}, Instances: 5, Label: "s"}}},
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

// TestDecodeRejections: an unknown policy or a malformed fault plan is
// refused when the spec is decoded, wrapping ErrInvalidSpec once.
func TestDecodeRejections(t *testing.T) {
	for name, cfg := range map[string]string{
		"unknown policy":          `{"policy":"nope"}`,
		"fault not a spec":        `{"fault":"x"}`,
		"fault rate out of range": `{"fault":"mem-jitter:5000"}`,
	} {
		job := `{"version":1,"bench":"cnt","config":` + cfg + `}`
		_, jerr := DecodeJobSpec([]byte(job))
		_, perr := DecodePlanSpec([]byte(`{"version":1,"kind":"custom","name":"x","jobs":[` + job + `]}`))
		for _, err := range []error{jerr, perr} {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
			} else if n := strings.Count(err.Error(), ErrInvalidSpec.Error()); n != 1 {
				t.Errorf("%s: %q names ErrInvalidSpec %d times", name, err, n)
			}
		}
	}
}

// TestWireGolden pins the canonical encodings: a custom plan setting every
// Config field, a safety plan, a figure plan and the custom plan's jobs
// encode to the recorded bytes, and each recorded line decodes and
// re-encodes to itself.
func TestWireGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	custom := PlanSpec{Version: 1, Kind: PlanCustom, Name: "wire", Jobs: []JobSpec{
		{Version: 1, Bench: "cnt", Kind: "comparison", Config: Config{
			Policy: PETHistogram, Tight: true, Standby: true, FreqAdvantage: 1.5,
			FlushTasks: 2, Instances: 10, HistogramMiss: 0.25, VaryInputSeeds: true,
			Fault:       &fault.Spec{Kind: fault.MemJitter, Rate: 50, Cycles: 64, Seed: 7},
			CycleBudget: 123456789, Label: "wire/all"}},
		{Version: 1, Bench: "srt", Kind: "safety", Config: Config{
			Tight: true, Instances: 5, Fault: &fault.Spec{Kind: fault.CacheFlush, Rate: 250, Seed: 3},
			Label: "wire/safety"}},
		{Version: 1, Bench: "fft", Kind: "table3", Config: Config{Label: "wire/table3"}},
	}}
	plans := []PlanSpec{
		custom,
		{Version: 1, Kind: PlanSafety, Benches: []string{"cnt", "lms"}, Instances: 5, Seed: 11,
			Faults: []string{"branch-poison", "mem-jitter"}, Rates: []int{50, 250}},
		{Version: 1, Kind: PlanFig2, Benches: []string{"fft"}, Instances: 20},
	}
	var enc []byte
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc = append(append(enc, b...), '\n')
	}
	for _, j := range custom.Jobs {
		b, err := j.Encode()
		if err != nil {
			t.Fatal(err)
		}
		enc = append(append(enc, b...), '\n')
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("encodings differ from testdata/wire.golden:\n%s", enc)
	}

	lines := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		var re []byte
		if i < len(plans) {
			p, err := DecodePlanSpec(line)
			if err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			if !reflect.DeepEqual(p, plans[i]) {
				t.Errorf("line %d decodes to %+v, want %+v", i+1, p, plans[i])
			}
			re, err = p.Encode()
		} else {
			j, err := DecodeJobSpec(line)
			if err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			re, err = j.Encode()
		}
		if !bytes.Equal(re, line) {
			t.Errorf("line %d: encode(decode(x)) != x:\n%s\n%s", i+1, line, re)
		}
	}
}

// FuzzJobSpecRoundTrip pins the canonical-encoding property the service
// relies on: for any JobSpec value, encode(decode(encode(s))) == encode(s)
// byte for byte. A spec whose policy or fault plan is invalid does not
// encode at all.
func FuzzJobSpecRoundTrip(f *testing.F) {
	f.Add(1, "cnt", "comparison", 0, true, false, 1.5, 3, 40, 0.1, true, true, 5, 50, int64(0), uint64(7), int64(99), "label")
	f.Add(1, "srt", "safety", 1, false, true, 0.0, 0, 0, 0.0, false, false, 0, 0, int64(0), uint64(0), int64(0), "")
	f.Add(7, "", "nope", 9, false, false, -1.0, -2, -3, math.Inf(1), true, true, -1, 5000, int64(-1), uint64(1), int64(-1), "Ω")
	f.Fuzz(func(t *testing.T, version int, bench, kind string, policy int,
		tight, standby bool, freqAdv float64, flush, instances int,
		miss float64, vary, hasFault bool, faultKind, faultRate int, faultCycles int64, faultSeed uint64,
		budget int64, label string) {
		if math.IsNaN(freqAdv) || math.IsInf(freqAdv, 0) || math.IsNaN(miss) || math.IsInf(miss, 0) {
			t.Skip("JSON cannot carry NaN/Inf")
		}
		for _, s := range []string{bench, kind, label} {
			if !utf8.ValidString(s) {
				// JSON strings are UTF-8; a spec holding invalid UTF-8 has
				// no canonical wire form (Marshal substitutes U+FFFD).
				t.Skip("invalid UTF-8 input")
			}
		}
		s := JobSpec{Version: version, Bench: bench, Kind: kind, Config: Config{
			Policy: PETPolicy(policy), Tight: tight, Standby: standby, FreqAdvantage: freqAdv,
			FlushTasks: flush, Instances: instances, HistogramMiss: miss,
			VaryInputSeeds: vary, CycleBudget: budget, Label: label,
		}}
		if hasFault {
			s.Config.Fault = &fault.Spec{Kind: fault.Kind(faultKind), Rate: faultRate, Cycles: faultCycles, Seed: faultSeed}
		}
		enc, err := s.Encode()
		if err != nil {
			if s.Config.Policy.Valid() && (s.Config.Fault == nil || s.Config.Fault.Validate() == nil) {
				t.Fatalf("valid policy and fault plan failed to encode: %v", err)
			}
			t.Skip("invalid policy or fault plan")
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

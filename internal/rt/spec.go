package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"visa/internal/clab"
	"visa/internal/fault"
)

// This file is the wire form of the Plan/Job API: versioned,
// JSON-serializable specs with no function values, so a plan can cross a
// network boundary (cmd/visad), live in a file (experiments -plan), or be
// replayed byte-for-byte later. The in-process types (Plan, Job) stay the
// execution API; PlanSpec/JobSpec name their benchmarks, kinds and paper
// plans by string, plus Validate() and materializers. A job's Config is
// its own wire form (see Config).
//
// Encoding is canonical: struct-driven field order, no maps, no floats that
// JSON cannot carry — so encode(decode(x)) == x for any encoded spec x, a
// property the service relies on for caching and the fuzz tests pin down.

// SpecVersion is the current PlanSpec/JobSpec schema version. Decoders
// reject other versions rather than guessing at field semantics.
const SpecVersion = 1

// jobKindNames spells JobKind values as specs carry them.
var jobKindNames = map[JobKind]string{
	JobComparison: "comparison",
	JobTable3:     "table3",
	JobSafety:     "safety",
}

func (k JobKind) String() string {
	if s, ok := jobKindNames[k]; ok {
		return s
	}
	return "invalid"
}

// ParseJobKind maps a spec spelling to a JobKind.
func ParseJobKind(s string) (JobKind, error) {
	for k := JobComparison; k <= JobSafety; k++ {
		if s == jobKindNames[k] {
			return k, nil
		}
	}
	return 0, invalidf("unknown job kind %q (want comparison, table3, or safety)", s)
}

// ConfigSpec is Config under its former wire-type name. It exists only
// because bench/serveload.go still names it: the bench/ module is kept
// unchanged so that its results compare across commits.
type ConfigSpec = Config

// JobSpec is one serializable unit of work: a benchmark, a job kind, and a
// config. It carries no function values, so it crosses process boundaries
// and round-trips exactly through JSON.
type JobSpec struct {
	Version int    `json:"version"`
	Bench   string `json:"bench"`
	Kind    string `json:"kind,omitempty"` // "" means comparison
	Config  Config `json:"config"`
}

// Validate rejects malformed job specs. Errors wrap ErrInvalidSpec.
func (j JobSpec) Validate() error {
	_, err := j.Job()
	return err
}

// Job materializes the spec, resolving the benchmark by name. Errors wrap
// ErrInvalidSpec.
func (j JobSpec) Job() (Job, error) {
	if j.Version != SpecVersion {
		return Job{}, invalidf("job spec version %d (this build speaks %d)", j.Version, SpecVersion)
	}
	b := clab.ByName(j.Bench)
	if b == nil {
		return Job{}, invalidf("unknown benchmark %q (have %s)",
			j.Bench, strings.Join(clab.Names(), " "))
	}
	kind := JobComparison
	if j.Kind != "" {
		var err error
		if kind, err = ParseJobKind(j.Kind); err != nil {
			return Job{}, err
		}
	}
	if err := j.Config.Validate(); err != nil {
		return Job{}, err
	}
	if kind == JobSafety && j.Config.Fault == nil {
		return Job{}, invalidf("safety job without a fault spec")
	}
	return Job{Bench: b, Kind: kind, Config: j.Config}, nil
}

// Encode renders the spec in its canonical JSON form.
func (j JobSpec) Encode() ([]byte, error) { return json.Marshal(j) }

// DecodeJobSpec parses a canonical JobSpec encoding. Unknown fields are
// errors (the schema is versioned — silence would mask typos), and so are
// an unknown PET policy and a malformed fault plan; everything else is
// checked by Validate, which callers that execute the spec run.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var j JobSpec
	if err := decodeSpec(data, &j, "job spec"); err != nil {
		return JobSpec{}, err
	}
	return j, nil
}

// decodeSpec decodes data into v, refusing unknown fields. Errors wrap
// ErrInvalidSpec.
func decodeSpec(data []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return invalidf("%s: %v", what, err)
	}
	return nil
}

// Plan kinds a PlanSpec can name. The figure/table kinds invoke the paper's
// plan constructors; "safety" is the fault campaign; "custom" carries an
// explicit job list.
const (
	PlanTable3 = "table3"
	PlanFig2   = "fig2"
	PlanFig3   = "fig3"
	PlanFig4   = "fig4"
	PlanSafety = "safety"
	PlanCustom = "custom"
)

// PlanSpec is a serializable experiment plan: a kind plus the knobs that
// kind consumes. It is the unit of submission to the visad service and the
// file format of `experiments -plan`.
type PlanSpec struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// Name labels custom plans (ignored for the named kinds, which carry
	// their own).
	Name string `json:"name,omitempty"`

	// Benches restricts the named kinds to these benchmarks (empty = all).
	Benches []string `json:"benches,omitempty"`

	// Instances overrides each job's task-instance count (fig2-4, safety).
	Instances int `json:"instances,omitempty"`

	// Seed is the safety campaign's base seed.
	Seed uint64 `json:"seed,omitempty"`

	// Faults/Rates restrict the safety campaign's sweep (empty = defaults).
	Faults []string `json:"faults,omitempty"`
	Rates  []int    `json:"rates,omitempty"`

	// Jobs is the explicit job list of a "custom" plan.
	Jobs []JobSpec `json:"jobs,omitempty"`
}

// Encode renders the spec in its canonical JSON form.
func (p PlanSpec) Encode() ([]byte, error) { return json.Marshal(p) }

// DecodePlanSpec parses a canonical PlanSpec encoding, refusing what
// DecodeJobSpec refuses. Callers that execute the spec validate it.
func DecodePlanSpec(data []byte) (PlanSpec, error) {
	var p PlanSpec
	if err := decodeSpec(data, &p, "plan spec"); err != nil {
		return PlanSpec{}, err
	}
	return p, nil
}

// Validate rejects malformed plan specs. Errors wrap ErrInvalidSpec.
func (p PlanSpec) Validate() error {
	_, err := p.Plan()
	return err
}

// Plan materializes the spec into an executable Plan via the paper's plan
// constructors (named kinds) or an explicit job list ("custom"). Errors
// wrap ErrInvalidSpec.
func (p PlanSpec) Plan() (*Plan, error) {
	if p.Version != SpecVersion {
		return nil, invalidf("plan spec version %d (this build speaks %d)", p.Version, SpecVersion)
	}
	if p.Instances < 0 {
		return nil, invalidf("plan spec: negative instances (%d)", p.Instances)
	}
	if p.Kind != PlanCustom && len(p.Jobs) > 0 {
		return nil, invalidf("plan spec: kind %q does not take an explicit job list (use kind custom)", p.Kind)
	}
	benches, err := p.benches()
	if err != nil {
		return nil, err
	}
	switch p.Kind {
	case PlanTable3:
		return Table3Plan(benches), nil
	case PlanFig2:
		return Figure2Plan(benches, p.Instances), nil
	case PlanFig3:
		return Figure3Plan(benches, p.Instances), nil
	case PlanFig4:
		return Figure4Plan(benches, p.Instances), nil
	case PlanSafety:
		c := SafetyCampaign{Seed: p.Seed, Instances: p.Instances}
		for _, name := range p.Faults {
			k, err := fault.ParseKind(name)
			if err != nil {
				return nil, invalidf("plan spec: %v", err)
			}
			c.Kinds = append(c.Kinds, k)
		}
		for _, r := range p.Rates {
			if r < 0 || r > fault.RateScale {
				return nil, invalidf("plan spec: rate %d out of range [0,%d]", r, fault.RateScale)
			}
			c.Rates = append(c.Rates, r)
		}
		return SafetyCampaignPlan(benches, c), nil
	case PlanCustom:
		if p.Name == "" {
			return nil, invalidf("plan spec: custom plan without a name")
		}
		if len(p.Jobs) == 0 {
			return nil, invalidf("plan spec: custom plan %q without jobs", p.Name)
		}
		jobs := make([]Job, len(p.Jobs))
		for i, js := range p.Jobs {
			j, err := js.Job()
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			jobs[i] = j
		}
		return &Plan{Name: p.Name, Jobs: jobs, Render: renderGeneric}, nil
	default:
		return nil, invalidf("plan spec: unknown kind %q (want %s, %s, %s, %s, %s, or %s)",
			p.Kind, PlanTable3, PlanFig2, PlanFig3, PlanFig4, PlanSafety, PlanCustom)
	}
}

// benches resolves the spec's benchmark list (empty = all).
func (p PlanSpec) benches() ([]*clab.Benchmark, error) {
	if len(p.Benches) == 0 {
		return clab.All(), nil
	}
	out := make([]*clab.Benchmark, len(p.Benches))
	for i, name := range p.Benches {
		b := clab.ByName(name)
		if b == nil {
			return nil, invalidf("unknown benchmark %q (have %s)",
				name, strings.Join(clab.Names(), " "))
		}
		out[i] = b
	}
	return out, nil
}

// renderGeneric renders a custom plan's report: each populated row family
// in plan order. Like every renderer it derives output from the rows only,
// so the text is identical however the plan executed.
func renderGeneric(r *Report) string {
	var b strings.Builder
	if rows := r.Table3Rows(); len(rows) > 0 {
		b.WriteString(FormatTable3(rows))
	}
	if rows := r.SavingsRows(); len(rows) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "POWER COMPARISON (T=tight, L=loose deadline).\n\n")
		fmt.Fprintf(&b, "%-8s %3s %10s %12s %12s %8s\n",
			"bench", "dl", "savings", "simple MHz", "complex MHz", "missed")
		for _, row := range rows {
			tag := "L"
			if row.Tight {
				tag = "T"
			}
			fmt.Fprintf(&b, "%-8s %3s %9.1f%% %12d %12d %8d\n",
				row.Name, tag, row.Savings*100,
				row.Simple.FinalSpecMHz, row.Complex.FinalSpecMHz,
				row.Complex.MissedTasks)
		}
	}
	if rows := r.SafetyRows(); len(rows) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(FormatSafetyRows(rows))
	}
	return b.String()
}

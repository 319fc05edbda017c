package rt

import "fmt"

// PETPolicy enumerates the run-time PET estimation policies (§4.3): one
// axis with named points, not a pile of flags.
type PETPolicy int

const (
	// PETLastN predicts each sub-task's PET as the maximum AET over the
	// last LastNWindow executions — the paper's default policy.
	PETLastN PETPolicy = iota
	// PETHistogram predicts PETs from per-sub-task AET histograms,
	// targeting the Config.HistogramMiss misprediction rate.
	PETHistogram

	numPETPolicies
)

// petPolicyNames spells the policies as ParsePETPolicy accepts them.
var petPolicyNames = [numPETPolicies]string{"last-n", "histogram"}

func (p PETPolicy) String() string {
	if p.Valid() {
		return petPolicyNames[p]
	}
	return "invalid"
}

// Valid reports whether p names a known policy.
func (p PETPolicy) Valid() bool { return p >= 0 && p < numPETPolicies }

// ParsePETPolicy maps a spelling ("last-n", "histogram") to a PETPolicy.
// Errors wrap ErrInvalidSpec.
func ParsePETPolicy(s string) (PETPolicy, error) {
	var p PETPolicy
	if err := p.UnmarshalText([]byte(s)); err != nil {
		return 0, invalidf("%v", err)
	}
	return p, nil
}

// MarshalText spells p as ParsePETPolicy accepts it; an unknown policy
// does not encode.
func (p PETPolicy) MarshalText() ([]byte, error) {
	if !p.Valid() {
		return nil, invalidf("config: unknown PETPolicy (%d)", int(p))
	}
	return []byte(petPolicyNames[p]), nil
}

// UnmarshalText parses a policy spelling.
func (p *PETPolicy) UnmarshalText(text []byte) error {
	for i, name := range petPolicyNames {
		if string(text) == name {
			*p = PETPolicy(i)
			return nil
		}
	}
	return fmt.Errorf("unknown PET policy %q (want last-n or histogram)", text)
}

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig builds a Config from functional options. The zero config (no
// options) is the paper's default run: loose deadline, last-N PET policy,
// 200 instances, no faults, instrumentation off. Every other knob is set
// with a Config literal.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithTightDeadline selects the tight (true) or loose (false) deadline.
func WithTightDeadline(tight bool) Option {
	return func(c *Config) { c.Tight = tight }
}

// WithInstances overrides the default 200 consecutive task executions.
func WithInstances(n int) Option {
	return func(c *Config) { c.Instances = n }
}

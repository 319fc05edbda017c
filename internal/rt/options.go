package rt

import (
	"visa/internal/fault"
	"visa/internal/obs"
)

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
func ParsePETPolicy(s string) (PETPolicy, error) {
	for p, name := range petPolicyNames {
		if s == name {
			return PETPolicy(p), nil
		}
	}
	return 0, invalidf("unknown PET policy %q (want last-n or histogram)", s)
}

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig builds a Config from functional options. The zero config (no
// options) is the paper's default run: loose deadline, last-N PET policy,
// 200 instances, no faults, instrumentation off.
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

// WithStandby enables the Wattch 10% standby-power variant.
func WithStandby() Option {
	return func(c *Config) { c.Standby = true }
}

// WithInstances overrides the default 200 consecutive task executions.
func WithInstances(n int) Option {
	return func(c *Config) { c.Instances = n }
}

// WithPETPolicy selects the PET estimation policy.
func WithPETPolicy(p PETPolicy) Option {
	return func(c *Config) { c.Policy = p }
}

// WithHistogramTarget selects the histogram policy with the given target
// misprediction rate.
func WithHistogramTarget(miss float64) Option {
	return func(c *Config) { c.Policy, c.HistogramMiss = PETHistogram, miss }
}

// WithFreqAdvantage grants simple-fixed a frequency advantage at equal
// voltage (Figure 3 uses 1.5).
func WithFreqAdvantage(adv float64) Option {
	return func(c *Config) { c.FreqAdvantage = adv }
}

// WithFlushTasks injects mispredictions by flushing caches and predictors
// at the start of n of the instances, spread evenly (Figure 4).
func WithFlushTasks(n int) Option {
	return func(c *Config) { c.FlushTasks = n }
}

// WithFaultSpec attaches a deterministic fault-injection plan.
func WithFaultSpec(spec fault.Spec) Option {
	return func(c *Config) { c.Fault = &spec }
}

// WithVariedInputSeeds varies the benchmark input seed per instance.
func WithVariedInputSeeds() Option {
	return func(c *Config) { c.VaryInputSeeds = true }
}

// WithCycleBudget aborts any task instance exceeding this many pipeline
// cycles with an error wrapping ErrCycleBudget (and ErrBudgetExceeded).
func WithCycleBudget(cycles int64) Option {
	return func(c *Config) { c.CycleBudget = cycles }
}

// WithObs attaches the instrumentation sink under the given label.
func WithObs(sink *obs.Sink, label string) Option {
	return func(c *Config) { c.Obs, c.Label = sink, label }
}

// WithLabel sets the label prefixing trace lanes, metric records, and
// counter names.
func WithLabel(label string) Option {
	return func(c *Config) { c.Label = label }
}

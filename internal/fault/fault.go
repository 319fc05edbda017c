// Package fault is the deterministic fault-injection layer: seed-driven
// adversarial timing perturbations for the two processor models, used to
// attack the VISA safety argument rather than assert it. A Spec names one
// fault plan (what to inject, how often, how hard, from which seed); an
// Injector realizes it as a stream of per-decision draws from a splitmix64
// generator, so the same Spec always produces the same faults — and hence
// byte-identical traces and metrics — on any worker count.
//
// The taxonomy splits in two. The complex-pipeline kinds (BranchPoison,
// DCacheMiss, FetchStall, ROBDrain) perturb the out-of-order timing model
// through the ooo.Injector hook points and may make the complex core
// arbitrarily slow: the watchdog/checkpoint machinery must catch every
// overrun. The paranoid kinds (CacheFlush, MemJitter) are the only ones the
// simple pipeline consumes, and they are WCET-safe *by construction*:
// flushing caches/predictors yields cold state, which the static bound
// already covers, and memory jitter is clamped by the pipeline to at most
// the architectural worst-case latency, so it can only shorten a miss.
// Simple-mode timing is the safety anchor; an injector must never be able
// to push it past the WCET bound.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault types.
type Kind int

const (
	// BranchPoison forces conditional-branch mispredictions in the complex
	// core (the gshare's prediction is inverted at poisoned branches).
	BranchPoison Kind = iota
	// DCacheMiss charges extra memory latency to loads in the complex core,
	// as if they had missed and waited on a contended bus.
	DCacheMiss
	// FetchStall throttles the complex core's front end for Spec.Cycles.
	FetchStall
	// ROBDrain serializes dispatch behind all older completions in the
	// complex core, as if the reorder buffer were drained.
	ROBDrain
	// CacheFlush flushes caches and predictors at task-instance boundaries
	// (on either processor): the Figure 4 perturbation, generalized. Cold
	// state is covered by the WCET bound's D-cache pad, so it is paranoid-
	// safe for the simple pipeline.
	CacheFlush
	// MemJitter perturbs miss latencies on the simple pipeline (and the
	// complex core's simple mode). The pipeline clamps the injected latency
	// to [0, worst-case], so jitter can only shorten a miss: paranoid-safe.
	MemJitter

	numKinds
)

var kindNames = [numKinds]string{
	BranchPoison: "branch-poison",
	DCacheMiss:   "dcache-miss",
	FetchStall:   "fetch-stall",
	ROBDrain:     "rob-drain",
	CacheFlush:   "cache-flush",
	MemJitter:    "mem-jitter",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Valid reports whether k names a known fault type.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// ParanoidSafe reports whether the kind is legal on the simple pipeline:
// provably unable to violate the WCET bound (see the package comment).
func (k Kind) ParanoidSafe() bool { return k == CacheFlush || k == MemJitter }

// ParseKind maps a spelling to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want %s)",
		s, strings.Join(kindNames[:], ", "))
}

// Kinds returns every fault kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Limits and defaults for Spec fields.
const (
	// RateScale is the denominator of Spec.Rate: per-mille.
	RateScale = 1000
	// DefaultCycles is the stall magnitude used when Spec.Cycles is zero —
	// the same order as the pipeline's drain/switch overhead.
	DefaultCycles = 64
	// MaxCycles caps Spec.Cycles. The watchdog detects an overrun only at
	// the next instruction's retire, so a single injected stall overshoots
	// the checkpoint by at most this much; the cap keeps that detection lag
	// within the recovery plan's slack.
	MaxCycles = 2000
)

// Spec names one deterministic fault plan. The zero Kind/Rate/Cycles/Seed
// combinations are all meaningful: Rate 0 injects nothing, Cycles 0 takes
// DefaultCycles, Seed 0 is an ordinary seed.
type Spec struct {
	Kind Kind
	// Rate is the per-decision injection probability in per-mille
	// (0..RateScale). Decisions are per-instruction for the pipeline kinds,
	// per-miss for MemJitter, and per-task-instance for CacheFlush.
	Rate int
	// Cycles is the stall magnitude for DCacheMiss and FetchStall
	// (0 = DefaultCycles). The other kinds ignore it.
	Cycles int64
	// Seed selects the pseudo-random fault stream.
	Seed uint64
}

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	if !s.Kind.Valid() {
		return fmt.Errorf("fault: invalid kind %d", int(s.Kind))
	}
	if s.Rate < 0 || s.Rate > RateScale {
		return fmt.Errorf("fault: rate %d out of range [0,%d]", s.Rate, RateScale)
	}
	if s.Cycles < 0 {
		return fmt.Errorf("fault: negative cycles %d", s.Cycles)
	}
	if s.Cycles > MaxCycles {
		return fmt.Errorf("fault: cycles %d above cap %d (watchdog detection lag would exceed the recovery slack)",
			s.Cycles, MaxCycles)
	}
	return nil
}

// String renders the spec in the form ParseSpec accepts:
// kind:rate:cycles:seed.
func (s Spec) String() string {
	return fmt.Sprintf("%s:%d:%d:%d", s.Kind, s.Rate, s.Cycles, s.Seed)
}

// MarshalText renders the spec in String form; an invalid spec does not
// encode, so every encoding parses back.
func (s Spec) MarshalText() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return []byte(s.String()), nil
}

// UnmarshalText parses the ParseSpec form.
func (s *Spec) UnmarshalText(text []byte) error {
	v, err := ParseSpec(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSpec parses "kind:rate[:cycles[:seed]]" — e.g. "branch-poison:250"
// or "dcache-miss:100:300:7".
func ParseSpec(str string) (Spec, error) {
	parts := strings.Split(str, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return Spec{}, fmt.Errorf("fault: spec %q: want kind:rate[:cycles[:seed]]", str)
	}
	var s Spec
	var err error
	if s.Kind, err = ParseKind(parts[0]); err != nil {
		return Spec{}, err
	}
	if s.Rate, err = strconv.Atoi(parts[1]); err != nil {
		return Spec{}, fmt.Errorf("fault: spec %q: bad rate: %v", str, err)
	}
	if len(parts) >= 3 {
		if s.Cycles, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
			return Spec{}, fmt.Errorf("fault: spec %q: bad cycles: %v", str, err)
		}
	}
	if len(parts) == 4 {
		if s.Seed, err = strconv.ParseUint(parts[3], 10, 64); err != nil {
			return Spec{}, fmt.Errorf("fault: spec %q: bad seed: %v", str, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// mix is the splitmix64 output function: a bijective avalanche over uint64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed folds coordinates (benchmark index, kind, rate, ...) into a
// base seed so that every probe of a campaign draws an independent,
// reproducible fault stream.
func DeriveSeed(base uint64, parts ...uint64) uint64 {
	x := base + 0x9e3779b97f4a7c15
	for _, p := range parts {
		x = mix(x ^ mix(p+0x9e3779b97f4a7c15))
	}
	return mix(x)
}

// Injector realizes one Spec as a deterministic fault stream. It implements
// the consumer-side hook interfaces of both timing models (ooo.Injector and
// simple.Injector); hooks for kinds other than the spec's are no-ops, so a
// single injector can be attached to a whole datapath and only its own
// fault type fires. Hooks draw from the generator only when their kind is
// active, keeping the stream independent of which model consumes it.
//
// An Injector is not safe for concurrent use; the experiment engine gives
// each job its own.
type Injector struct {
	spec     Spec
	state    uint64
	injected int64
	taken    int64
}

// New builds the injector for a validated spec.
func New(spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		spec: spec,
		// Distinct specs diverge even on a shared seed.
		state: DeriveSeed(spec.Seed, uint64(spec.Kind), uint64(spec.Rate), uint64(spec.Cycles)),
	}, nil
}

// Spec returns the plan this injector realizes.
func (j *Injector) Spec() Spec { return j.spec }

// next is the splitmix64 step.
func (j *Injector) next() uint64 {
	j.state += 0x9e3779b97f4a7c15
	return mix(j.state)
}

// hit draws one per-mille Bernoulli decision.
func (j *Injector) hit() bool {
	if j.spec.Rate <= 0 {
		return false
	}
	return j.next()%RateScale < uint64(j.spec.Rate)
}

// cycles is the configured stall magnitude.
func (j *Injector) cycles() int64 {
	if j.spec.Cycles > 0 {
		return j.spec.Cycles
	}
	return DefaultCycles
}

// FetchStall implements ooo.Injector: extra front-end stall cycles.
func (j *Injector) FetchStall() int64 {
	if j == nil || j.spec.Kind != FetchStall || !j.hit() {
		return 0
	}
	j.injected++
	return j.cycles()
}

// PoisonBranch implements ooo.Injector: force this conditional branch to
// mispredict.
func (j *Injector) PoisonBranch() bool {
	if j == nil || j.spec.Kind != BranchPoison || !j.hit() {
		return false
	}
	j.injected++
	return true
}

// LoadStall implements ooo.Injector: extra memory latency for this load.
func (j *Injector) LoadStall() int64 {
	if j == nil || j.spec.Kind != DCacheMiss || !j.hit() {
		return 0
	}
	j.injected++
	return j.cycles()
}

// DrainStall implements ooo.Injector: serialize dispatch behind all older
// completions (an injected ROB drain).
func (j *Injector) DrainStall() bool {
	if j == nil || j.spec.Kind != ROBDrain || !j.hit() {
		return false
	}
	j.injected++
	return true
}

// FlushInstance is the harness hook: flush caches and predictors at this
// task-instance boundary?
func (j *Injector) FlushInstance() bool {
	if j == nil || j.spec.Kind != CacheFlush || !j.hit() {
		return false
	}
	j.injected++
	return true
}

// MissLatency implements simple.Injector: the injected miss penalty given
// the architectural worst case. The pipeline clamps the return value to
// [0, worst]; this implementation only ever returns values in that range
// anyway (jitter shortens misses, never lengthens them).
func (j *Injector) MissLatency(worst int64) int64 {
	if j == nil || j.spec.Kind != MemJitter || worst <= 0 || !j.hit() {
		return worst
	}
	j.injected++
	return int64(j.next() % uint64(worst+1))
}

// Count returns the total number of faults injected so far.
func (j *Injector) Count() int64 {
	if j == nil {
		return 0
	}
	return j.injected
}

// Take returns the number of faults injected since the previous Take — the
// per-interval (e.g. per-task-instance) figure.
func (j *Injector) Take() int64 {
	if j == nil {
		return 0
	}
	d := j.injected - j.taken
	j.taken = j.injected
	return d
}

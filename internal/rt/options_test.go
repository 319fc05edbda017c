package rt

import (
	"errors"
	"testing"

	"visa/internal/fault"
)

func TestNewConfigOptions(t *testing.T) {
	spec := fault.Spec{Kind: fault.MemJitter, Rate: 50, Seed: 7}
	c := NewConfig(
		WithTightDeadline(true),
		WithStandby(),
		WithInstances(17),
		WithHistogramTarget(0.25),
		WithFreqAdvantage(1.5),
		WithFlushTasks(3),
		WithFaultSpec(spec),
		WithVariedInputSeeds(),
		WithCycleBudget(1e9),
		WithLabel("opt"),
	)
	if !c.Tight || !c.Standby || c.Instances != 17 || c.FlushTasks != 3 {
		t.Errorf("scalar options not applied: %+v", c)
	}
	if c.Policy != PETHistogram || c.HistogramMiss != 0.25 {
		t.Errorf("WithHistogramTarget: policy=%v miss=%v", c.Policy, c.HistogramMiss)
	}
	if c.FreqAdvantage != 1.5 || !c.VaryInputSeeds || c.CycleBudget != 1e9 || c.Label != "opt" {
		t.Errorf("options not applied: %+v", c)
	}
	if c.Fault == nil || *c.Fault != spec {
		t.Errorf("WithFaultSpec: got %v, want %v", c.Fault, spec)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPETPolicyParseAndString(t *testing.T) {
	for _, p := range []PETPolicy{PETLastN, PETHistogram} {
		got, err := ParsePETPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePETPolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePETPolicy("nope"); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("ParsePETPolicy(nope) err = %v, want ErrInvalidSpec", err)
	}
}

func TestValidateRejectsUnknownPolicy(t *testing.T) {
	err := Config{Policy: PETPolicy(99)}.Validate()
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Validate err = %v, want ErrInvalidSpec", err)
	}
}

// TestBudgetSentinel: ErrCycleBudget failures classify as budget overruns
// at the service boundary via errors.Is.
func TestBudgetSentinel(t *testing.T) {
	if !errors.Is(ErrCycleBudget, ErrBudgetExceeded) {
		t.Error("ErrCycleBudget must wrap ErrBudgetExceeded")
	}
}

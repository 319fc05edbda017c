package core

import "visa/internal/power"

// SpecMode selects the frequency-speculation formulation.
type SpecMode int

const (
	// SpecVISA is EQ 4: on a misprediction the processor switches to the
	// recovery frequency AND to simple mode, so the unfinished sub-task and
	// all remaining sub-tasks are bounded by VISA WCETs — no worst-case
	// analysis of the complex pipeline is ever needed (§4.2).
	SpecVISA SpecMode = iota
	// SpecConventional is EQ 2 [Rotenberg 2001]: the mispredicted sub-task
	// finishes on the same (safe) pipeline at the speculative frequency,
	// bounded by its own WCET. Valid only for the explicitly-safe
	// processor, whose pipeline is the analyzed one.
	SpecConventional
)

// Params describes one task's real-time contract.
type Params struct {
	DeadlineNs float64
	// OvhdNs is the fixed overhead to switch frequency/voltage (and, on
	// the complex processor, to drain and re-configure into simple mode) —
	// the ovhd term of EQ 1-4.
	OvhdNs float64
}

// Plan is the solved operating schedule for a task: the speculative and
// recovery operating points, the checkpoints (EQ 1), and the watchdog
// programming derived from them (§2.2).
type Plan struct {
	Mode SpecMode

	Spec power.OperatingPoint // normal (speculative) operating point
	Rec  power.OperatingPoint // recovery operating point

	// Speculating reports whether PET-based speculation is active. When
	// false, Spec is a provably safe frequency (ΣWCET fits the deadline)
	// and checkpoints can never be missed; the paper uses this for
	// simple-fixed benchmarks whose WCET is tight (§6.2).
	Speculating bool

	// CheckpointsNs[i] is sub-task i's interim deadline relative to task
	// start (EQ 1). Sub-task indices are 0-based here; checkpoint_0
	// corresponds to the paper's checkpoint_1.
	CheckpointsNs []float64

	// WatchdogInit is the cycle count programmed at task start:
	// floor(checkpoint_0 * f_spec). WatchdogAdd[i] is added when sub-task
	// i (i >= 1) begins: floor((checkpoint_i - checkpoint_{i-1}) * f_spec).
	WatchdogInit int64
	WatchdogAdd  []int64
}

func mhzToGHz(mhz int) float64 { return float64(mhz) / 1000 }

// petTimeNs converts a PET stored as nanoseconds-at-1GHz into nanoseconds
// at the given frequency (pure frequency scaling; PETs are predictions, not
// bounds, so this approximation is safe — the watchdog catches any excess).
func petTimeNs(pet1G float64, fMHz int) float64 { return pet1G * 1000 / float64(fMHz) }

// feasible checks the s equations of EQ 2 or EQ 4 for a candidate pair.
func feasible(mode SpecMode, p Params, t *WCETTable, pets []float64, si, ri int) bool {
	s := len(pets)
	fs := t.Points[si].FMHz
	prefix := 0.0
	for i := 0; i < s; i++ {
		var lhs float64
		switch mode {
		case SpecVISA:
			// EQ 4: Σ_{j<=i} PET_{j,fs} + ovhd + Σ_{k>=i} WCET_{k,fr}
			lhs = prefix + petTimeNs(pets[i], fs) + p.OvhdNs + t.TailTimeNs(ri, i)
		case SpecConventional:
			// EQ 2: Σ_{j<i} PET_{j,fs} + WCET_{i,fs} + ovhd + Σ_{k>i} WCET_{k,fr}
			lhs = prefix + t.TimeNs(si, i) + p.OvhdNs + t.TailTimeNs(ri, i+1)
		}
		if lhs > p.DeadlineNs {
			return false
		}
		prefix += petTimeNs(pets[i], fs)
	}
	return true
}

// SafeFrequency returns the lowest operating-point index at which the task
// is guaranteed without speculation (Σ WCET <= deadline), or ok=false.
func SafeFrequency(p Params, t *WCETTable) (int, bool) {
	for i := range t.Points {
		if t.TotalTimeNs(i) <= p.DeadlineNs {
			return i, true
		}
	}
	return 0, false
}

// Solve finds the lowest safe {f_spec, f_rec} pair (paper §4.1: lowest
// speculative frequency first, then lowest recovery frequency) and builds
// the full plan: checkpoints per EQ 1 at the recovery frequency, watchdog
// values at the speculative frequency (§4.2).
//
// For SpecConventional, speculation is only adopted when it lowers the
// frequency below the non-speculative safe frequency; otherwise the plan
// runs fixed at the safe frequency with checkpoints disabled (§6.2).
func Solve(mode SpecMode, p Params, t *WCETTable, pets []float64) (*Plan, bool) {
	if len(pets) != t.NumSubTasks() {
		return nil, false
	}
	safeIdx, safeOK := SafeFrequency(p, t)

	bestSpec, bestRec := -1, -1
	for si := range t.Points {
		for ri := range t.Points {
			if feasible(mode, p, t, pets, si, ri) {
				bestSpec, bestRec = si, ri
				break
			}
		}
		if bestSpec >= 0 {
			break
		}
	}

	if bestSpec < 0 {
		if !safeOK {
			return nil, false
		}
		if mode == SpecConventional {
			// The explicitly-safe pipeline can simply run fixed at a
			// provably safe frequency.
			return fixedPlan(mode, p, t, safeIdx), true
		}
		// The complex pipeline is never safe without checkpoints: run at a
		// VISA-safe frequency with the watchdog armed; any miss drops to
		// simple mode, which the safe frequency covers by construction.
		// The frequency needs head-room beyond minimal safety: at the
		// minimal safe point checkpoint_1 = -ovhd lies in the past and the
		// watchdog could not arm, forcing permanent simple mode.
		idx := safeIdx
		headroom := Params{
			DeadlineNs: p.DeadlineNs*0.98 - p.OvhdNs,
			OvhdNs:     p.OvhdNs,
		}
		if hi, ok := SafeFrequency(headroom, t); ok {
			idx = hi
		}
		plan := &Plan{
			Mode:        mode,
			Spec:        t.Points[idx],
			Rec:         t.Points[idx],
			Speculating: true,
		}
		plan.buildCheckpoints(p, t, idx)
		return plan, true
	}
	if mode == SpecConventional && safeOK && safeIdx <= bestSpec {
		// Speculation would not lower the frequency (it must budget the
		// misprediction overhead): run fixed, as the paper does for the
		// tight-WCET benchmarks (§6.2).
		return fixedPlan(mode, p, t, safeIdx), true
	}

	plan := &Plan{
		Mode:        mode,
		Spec:        t.Points[bestSpec],
		Rec:         t.Points[bestRec],
		Speculating: true,
	}
	plan.buildCheckpoints(p, t, bestRec)
	if mode == SpecConventional {
		plan.buildPETBudgets(pets)
	}
	return plan, true
}

// buildPETBudgets programs the watchdog for conventional frequency
// speculation [Rotenberg 2001]: the budget added per sub-task is its PET
// (in cycles — PETs are stored as cycles-at-1GHz and cycle counts carry
// across frequencies under pure scaling), so the exception fires when
// elapsed time exceeds Σ PET, exactly the detection point EQ 2 assumes.
// The mispredicted sub-task then finishes at the speculative frequency
// (bounded by its own WCET there) and the switch to the recovery frequency
// happens at the next sub-task boundary.
func (pl *Plan) buildPETBudgets(pets []float64) {
	pl.WatchdogInit = int64(pets[0])
	pl.WatchdogAdd = make([]int64, len(pets))
	for i := 1; i < len(pets); i++ {
		pl.WatchdogAdd[i] = int64(pets[i])
	}
}

// fixedPlan runs at a provably safe frequency; the watchdog is disarmed
// (checkpoints cannot be missed, there is nothing to recover to).
func fixedPlan(mode SpecMode, p Params, t *WCETTable, idx int) *Plan {
	return &Plan{
		Mode:        mode,
		Spec:        t.Points[idx],
		Rec:         t.Points[idx],
		Speculating: false,
	}
}

// buildCheckpoints fills CheckpointsNs per EQ 1 using the recovery point
// for the WCET terms, and the watchdog values at the speculative frequency.
func (pl *Plan) buildCheckpoints(p Params, t *WCETTable, ri int) {
	s := t.NumSubTasks()
	pl.CheckpointsNs = make([]float64, s)
	for i := 0; i < s; i++ {
		pl.CheckpointsNs[i] = p.DeadlineNs - p.OvhdNs - t.TailTimeNs(ri, i)
	}
	fsGHz := mhzToGHz(pl.Spec.FMHz)
	pl.WatchdogInit = int64(pl.CheckpointsNs[0] * fsGHz)
	pl.WatchdogAdd = make([]int64, s)
	for i := 1; i < s; i++ {
		pl.WatchdogAdd[i] = int64((pl.CheckpointsNs[i] - pl.CheckpointsNs[i-1]) * fsGHz)
	}
}

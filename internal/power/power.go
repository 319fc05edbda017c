package power

import "fmt"

// OperatingPoint is one DVS frequency/voltage setting. Following §5.2, the
// table is extrapolated from the Intel XScale's reported range into 37
// settings from 100 MHz / 0.70 V to 1 GHz / 1.8 V in 25 MHz / 0.03 V steps.
type OperatingPoint struct {
	FMHz  int
	Volts float64
}

// NumPoints is the size of the DVS table.
const NumPoints = 37

// volts interpolates the XScale-derived voltage ladder. The paper quotes
// "25 MHz / 0.03 V increments" spanning 100 MHz/0.70 V to 1 GHz/1.8 V; the
// exact per-step increment that spans that range over 36 steps is
// 1.10/36 ≈ 0.0306 V, which we use so both endpoints match the paper.
func volts(i int) float64 {
	return 0.70 + 1.10*float64(i)/float64(NumPoints-1)
}

// Points returns the 37-entry DVS table, lowest frequency first.
func Points() []OperatingPoint {
	pts := make([]OperatingPoint, NumPoints)
	for i := range pts {
		pts[i] = OperatingPoint{FMHz: 100 + 25*i, Volts: volts(i)}
	}
	return pts
}

// PointFor returns the operating point for an exact table frequency.
func PointFor(fMHz int) (OperatingPoint, error) {
	if fMHz < 100 || fMHz > 1000 || (fMHz-100)%25 != 0 {
		return OperatingPoint{}, fmt.Errorf("power: %d MHz is not a DVS operating point", fMHz)
	}
	return OperatingPoint{FMHz: fMHz, Volts: volts((fMHz - 100) / 25)}, nil
}

// MinPoint is the lowest setting, used to idle until the deadline (§5.2).
func MinPoint() OperatingPoint { return OperatingPoint{FMHz: 100, Volts: 0.70} }

// MaxPoint is the highest setting.
func MaxPoint() OperatingPoint { return OperatingPoint{FMHz: 1000, Volts: 1.80} }

// Unit identifies a power-modelled structure, in the style of Wattch's
// per-array power models.
type Unit int

// Structures.
const (
	UFetch Unit = iota
	UBPred
	UICache
	UDCache
	URename
	UIQWrite
	UIQIssue
	ULSQ
	URegRead
	URegWrite
	UFU
	UROB
	UBypass
	numUnits
)

var unitNames = [numUnits]string{
	"fetch", "bpred", "icache", "dcache", "rename", "iq-write", "iq-issue",
	"lsq", "regread", "regwrite", "fu", "rob", "bypass",
}

func (u Unit) String() string { return unitNames[u] }

// Profile holds a processor's per-access effective capacitances (arbitrary
// energy units at 1 V; energy scales with V²) and its per-cycle clock-tree
// capacitance, which Wattch derives from die dimensions — the paper halves
// both die dimensions for simple-fixed (§5.2).
type Profile struct {
	Name     string
	Cap      [numUnits]float64
	ClockCap float64
}

// ComplexProfile models the 4-way dynamically scheduled core: 128-entry
// ROB, 64-entry issue queue with wakeup/select, 64-entry LSQ, a large
// multiported physical register file, 2^16-entry predictor tables, four
// universal FUs, and a full-size die clock tree.
var ComplexProfile = Profile{
	Name: "complex",
	Cap: [numUnits]float64{
		UFetch:    1.0,
		UBPred:    3.0,
		UICache:   12.0, // 4-wide fetch port reads a whole fetch block
		UDCache:   10.0,
		URename:   1.5,
		UIQWrite:  1.2,
		UIQIssue:  2.5,
		ULSQ:      1.5,
		URegRead:  1.0,
		URegWrite: 1.2,
		UFU:       2.0, // per occupancy cycle
		UROB:      1.2,
		UBypass:   1.0,
	},
	ClockCap: 14.0,
}

// SimpleFixedProfile models the literal VISA implementation: 32-entry
// architectural register file with two read ports, no rename/issue/LSQ/ROB
// structures, static prediction (no tables), one universal FU, and a die
// with both dimensions halved, quartering clock-tree capacitance.
var SimpleFixedProfile = Profile{
	Name: "simple-fixed",
	Cap: [numUnits]float64{
		UFetch:    0.5,
		UBPred:    0,
		UICache:   10.0, // single-instruction fetch port, same 64KB array
		UDCache:   10.0,
		URename:   0,
		UIQWrite:  0,
		UIQIssue:  0,
		ULSQ:      0,
		URegRead:  0.4,
		URegWrite: 0.5,
		UFU:       2.0,
		UROB:      0,
		UBypass:   0.5,
	},
	ClockCap: 3.5,
}

// unitCounts maps activity fields to structures.
func unitCounts(a Activity) [numUnits]int64 {
	return [numUnits]int64{
		UFetch:    a.Fetches,
		UBPred:    a.BPred,
		UICache:   a.ICacheAcc,
		UDCache:   a.DCacheAcc,
		URename:   a.Renames,
		UIQWrite:  a.IQWrites,
		UIQIssue:  a.IQIssues,
		ULSQ:      a.LSQOps,
		URegRead:  a.RegReads,
		URegWrite: a.RegWrites,
		UFU:       a.FUOps,
		UROB:      a.ROBOps,
		UBypass:   a.Bypass,
	}
}

// StandbyFraction is the Wattch "10% standby power" variant: an otherwise
// idle unit consumes this fraction of its per-cycle maximum.
const StandbyFraction = 0.10

// Accounting accumulates energy for one processor across DVS segments.
// Energies are in the model's arbitrary units; only ratios are meaningful,
// exactly as with the paper's relative power comparisons.
type Accounting struct {
	Profile Profile
	Standby bool // include 10% standby power

	energy float64
	cycles int64

	// Breakdown accumulators for reporting.
	unitE    [numUnits]float64
	clockE   float64
	idleE    float64
	standbyE float64
}

// AddSegment accrues one accounting segment executed at voltage v:
// per-access dynamic energy under perfect clock gating, always-on clock
// tree, and optionally 10% standby power for idle unit-cycles.
func (acct *Accounting) AddSegment(a Activity, v float64) {
	vv := v * v
	counts := unitCounts(a)
	for u, c := range counts {
		e := acct.Profile.Cap[u] * float64(c) * vv
		acct.energy += e
		acct.unitE[u] += e
		if acct.Standby && a.Cycles > c {
			sb := StandbyFraction * acct.Profile.Cap[u] * float64(a.Cycles-c) * vv
			acct.energy += sb
			acct.standbyE += sb
		}
	}
	ce := acct.Profile.ClockCap * float64(a.Cycles) * vv
	acct.energy += ce
	acct.clockE += ce
	acct.cycles += a.Cycles
}

// Breakdown reports energy by component: per-unit, clock tree, idle, and
// standby, in the model's units.
func (acct *Accounting) Breakdown() map[string]float64 {
	out := map[string]float64{
		"clock":   acct.clockE,
		"idle":    acct.idleE,
		"standby": acct.standbyE,
	}
	for u, e := range acct.unitE {
		out[Unit(u).String()] = e
	}
	return out
}

// AddIdle accrues a fully idle stretch (run-to-deadline slack at the lowest
// setting): clock tree plus optional standby power.
func (acct *Accounting) AddIdle(cycles int64, v float64) {
	if cycles <= 0 {
		return
	}
	vv := v * v
	ie := acct.Profile.ClockCap * float64(cycles) * vv
	if acct.Standby {
		total := 0.0
		for _, c := range acct.Profile.Cap {
			total += c
		}
		ie += StandbyFraction * total * float64(cycles) * vv
	}
	acct.energy += ie
	acct.idleE += ie
	acct.cycles += cycles
}

// Energy returns the accumulated energy.
func (acct *Accounting) Energy() float64 { return acct.energy }

// Cycles returns the accumulated cycle count across segments.
func (acct *Accounting) Cycles() int64 { return acct.cycles }

// Reset clears the accumulator.
func (acct *Accounting) Reset() {
	*acct = Accounting{Profile: acct.Profile, Standby: acct.Standby}
}

// AvgPower converts accumulated energy over a wall-clock period in
// nanoseconds to average power (arbitrary units per ns).
func (acct *Accounting) AvgPower(periodNs float64) float64 {
	if periodNs <= 0 {
		return 0
	}
	return acct.energy / periodNs
}

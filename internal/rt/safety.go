package rt

import (
	"fmt"
	"strings"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/obs"
)

// The safety campaign is the adversarial counterpart of Figure 4: instead
// of the paper's benign cache-flush perturbation it drives seeded timing
// faults (internal/fault) through both processors and asserts the VISA
// safety argument end to end — every injected overrun on the complex core
// is caught by the watchdog and answered with a simple-mode switch, the
// explicitly-safe core never exceeds its WCET bound, and no deadline is
// missed anywhere in the sweep. A campaign that merely *degrades* power is
// fine; one that breaks any of those three properties fails its job.

// SafetyProcStats summarizes one processor's run under fault injection.
type SafetyProcStats struct {
	Faults          int64 // faults actually injected (hook draws that hit)
	Missed          int   // watchdog-detected overruns
	SimpleModeTasks int   // overruns answered by a simple-mode switch
	Violations      int   // deadline violations (must be zero)
	WCETExceed      int   // simple-fixed sub-task AETs above the WCET bound (must be zero)
}

// SafetyRow is one (benchmark, fault spec) cell of the safety campaign.
type SafetyRow struct {
	Bench   string
	Spec    fault.Spec
	Complex SafetyProcStats
	Simple  SafetyProcStats
}

func safetyStats(r *ProcResult) SafetyProcStats {
	return SafetyProcStats{
		Faults:          r.FaultsInjected,
		Missed:          r.MissedTasks,
		SimpleModeTasks: r.SimpleModeTasks,
		Violations:      r.DeadlineViolations,
		WCETExceed:      r.WCETExceedances,
	}
}

// runSafetyJob executes both processors under cfg's fault plan and checks
// the safety property. Unlike RunComparison it feeds the fault spec to the
// simple-fixed core too — the paranoid injector must be provably harmless
// there, and the run verifies it.
func runSafetyJob(b *clab.Benchmark, cfg Config) (*SafetyRow, error) {
	if cfg.Fault == nil {
		return nil, errf("rt: %s: safety job without a fault spec", b.Name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := GetSetup(b)
	if err != nil {
		return nil, err
	}
	cx, err := RunProcessor(s, ProcComplex, cfg)
	if err != nil {
		return nil, err
	}
	sf, err := RunProcessor(s, ProcSimpleFixed, cfg)
	if err != nil {
		return nil, err
	}
	row := &SafetyRow{Bench: b.Name, Spec: *cfg.Fault,
		Complex: safetyStats(cx), Simple: safetyStats(sf)}

	// The three safety assertions. These are job failures, not report
	// footnotes: a broken property must surface through Report.Err().
	if cx.DeadlineViolations > 0 || sf.DeadlineViolations > 0 {
		return nil, errf("rt: %s [%s]: DEADLINE VIOLATED under injection (complex=%d simple=%d) — safety property broken",
			b.Name, cfg.Fault, cx.DeadlineViolations, sf.DeadlineViolations)
	}
	if sf.WCETExceedances > 0 {
		return nil, errf("rt: %s [%s]: %d sub-task AETs above the WCET bound on simple-fixed — paranoid injector breached the safety anchor",
			b.Name, cfg.Fault, sf.WCETExceedances)
	}
	if cx.MissedTasks != cx.SimpleModeTasks {
		return nil, errf("rt: %s [%s]: %d watchdog overruns but %d simple-mode switches — an overrun escaped recovery",
			b.Name, cfg.Fault, cx.MissedTasks, cx.SimpleModeTasks)
	}

	if mw := cfg.Obs.M(); mw != nil {
		mw.Write(obs.Record{
			obs.F("kind", "safety"),
			obs.F("label", cfg.Label),
			obs.F("bench", b.Name),
			obs.F("fault", cfg.Fault.String()),
			obs.F("complex_faults", row.Complex.Faults),
			obs.F("complex_missed", row.Complex.Missed),
			obs.F("complex_simple_mode", row.Complex.SimpleModeTasks),
			obs.F("simple_faults", row.Simple.Faults),
			obs.F("simple_missed", row.Simple.Missed),
			obs.F("violations", row.Complex.Violations+row.Simple.Violations),
			obs.F("wcet_exceed", row.Simple.WCETExceed),
		})
	}
	return row, nil
}

// SafetyCampaign configures the fault sweep. The zero value selects the
// full taxonomy at two intensities — the default campaign.
type SafetyCampaign struct {
	// Kinds are the fault kinds to sweep; nil selects all of them.
	Kinds []fault.Kind
	// Rates are injection rates in draws-per-RateScale; nil selects a
	// moderate and an aggressive point.
	Rates []int
	// Cycles is the per-fault stall magnitude; 0 selects
	// fault.DefaultCycles. Kept well below fault.MaxCycles so an injected
	// stall plus the watchdog's one-retire detection lag stays inside the
	// recovery slack.
	Cycles int64
	// Seed is the campaign's base seed; every job derives its own spec
	// seed from it, so one campaign seed reproduces the whole sweep.
	Seed uint64
	// Instances per job; 0 selects 40 (enough periods for the PET
	// estimator to warm up and the sweep to hit steady state).
	Instances int
}

func (c *SafetyCampaign) kinds() []fault.Kind {
	if len(c.Kinds) > 0 {
		return c.Kinds
	}
	return fault.Kinds()
}

func (c *SafetyCampaign) rates() []int {
	if len(c.Rates) > 0 {
		return c.Rates
	}
	return []int{50, 250}
}

func (c *SafetyCampaign) cycles() int64 {
	if c.Cycles > 0 {
		return c.Cycles
	}
	return fault.DefaultCycles
}

func (c *SafetyCampaign) instances() int {
	if c.Instances > 0 {
		return c.Instances
	}
	return 40
}

// SafetyCampaignPlan builds the fault sweep: kind x rate x benchmark, every
// cell a JobSafety under a tight deadline. Input seeds stay fixed (the
// D-cache pad is derived from the default-seed cold run); the adversary is
// the fault plan, not the workload.
func SafetyCampaignPlan(benches []*clab.Benchmark, c SafetyCampaign) *Plan {
	var jobs []Job
	for bi, b := range benches {
		for _, k := range c.kinds() {
			for _, rate := range c.rates() {
				spec := fault.Spec{
					Kind:   k,
					Rate:   rate,
					Cycles: c.cycles(),
					Seed:   fault.DeriveSeed(c.Seed, uint64(bi), uint64(k), uint64(rate)),
				}
				jobs = append(jobs, Job{Bench: b, Kind: JobSafety, Config: Config{
					Tight:     true,
					Instances: c.instances(),
					Fault:     &spec,
					Label:     fmt.Sprintf("safety/%s/%s", b.Name, spec),
				}})
			}
		}
	}
	return &Plan{Name: "safety", Jobs: jobs, Render: renderTableS}
}

// renderTableS renders the campaign like the paper's tables: one line per
// (benchmark, fault) cell with the injection volume and the recovery
// bookkeeping that proves the safety property held.
func renderTableS(r *Report) string {
	var b strings.Builder
	b.WriteString(FormatSafetyRows(r.SafetyRows()))
	ok := len(r.SafetyRows())
	fmt.Fprintf(&b, "\n%d/%d cells passed the safety assertions.\n", ok, len(r.Plan.Jobs))
	return b.String()
}

// FormatSafetyRows renders safety-campaign rows like the paper's tables:
// one line per (benchmark, fault) cell with the injection volume and the
// recovery bookkeeping that proves the safety property held.
func FormatSafetyRows(rows []SafetyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE S. Safety campaign: seeded fault injection, tight deadline.\n")
	fmt.Fprintf(&b, "Every row passed: zero deadline violations, zero WCET exceedances,\n")
	fmt.Fprintf(&b, "every complex-core overrun answered by a simple-mode switch.\n\n")
	fmt.Fprintf(&b, "%-8s %-20s %10s %8s %8s %10s %8s\n",
		"bench", "fault", "cx.faults", "cx.miss", "cx.simp", "sf.faults", "sf.miss")
	for _, row := range rows {
		// The per-job seed is derived, so the table shows the readable
		// kind:rate:cycles form; the full spec is in the labels/metrics.
		fmt.Fprintf(&b, "%-8s %-20s %10d %8d %8d %10d %8d\n",
			row.Bench, fmt.Sprintf("%s:%d:%d", row.Spec.Kind, row.Spec.Rate, row.Spec.Cycles),
			row.Complex.Faults, row.Complex.Missed, row.Complex.SimpleModeTasks,
			row.Simple.Faults, row.Simple.Missed)
	}
	return b.String()
}

// Command experiments regenerates the paper's evaluation: Table 3 and
// Figures 2, 3, and 4, running 200 task instances per configuration (or
// fewer with -n for a quick look). Each benchmark × configuration is an
// independent job; -j runs jobs on a worker pool (default: all CPUs) with
// a deterministic merge, so the output — stdout and metrics files alike —
// is byte-identical for any -j. With -metrics, each experiment also
// streams machine-readable records (one JSON object per line) into the
// given directory: table3.jsonl carries the printed rows plus per-sub-task
// WCET bounds, and fig{2,3,4}.jsonl carry a kind:"summary" record per
// processor comparison plus the coalesced counters and histograms below.
//
// -campaign safety runs the fault-injection sweep instead: every fault
// kind (or the -faults subset) at each -rates intensity across all six
// benchmarks and both processors, asserting the VISA safety property in
// every cell ("Table S"). Its metrics stream (safety.jsonl) carries a
// kind:"safety" record per cell plus the coalesced counters below.
//
// -campaign conform runs the cross-model conformance oracle: -n seeded
// random programs (default 200) plus all six benchmarks, each swept
// through the functional machine, the simple pipeline, the complex core's
// simple mode, and the WCET analyzer in lockstep, asserting invariants
// I1-I4 (see internal/conform). A violating program fails its job with a
// minimized reproducer replayable via `visasim -conform -gen <seed>`.
//
// Counter-shaped metrics traffic (injected faults, watchdog firings,
// per-instance and per-program scalars) always goes through a coalescing
// sink (VSA S/Δ accumulator, see internal/obs): deltas accumulate in
// memory per key and only the net effect is flushed as kind:"counter.flush"
// records, so the durable stream scales with the number of distinct series
// instead of the number of events. Distributions survive as kind:"hist"
// records (fixed-boundary histograms of watchdog margins, switch drains,
// instance latency, and deadline slack). Output stays byte-identical for
// any -j.
//
// -cpuprofile/-memprofile write pprof profiles covering the whole run;
// -pprof serves net/http/pprof live. All three are off by default and cost
// nothing when disabled.
//
// Usage:
//
//	experiments [-n 200] [-j NumCPU] [-table3] [-fig2] [-fig3] [-fig4]
//	            [-spec] [-all] [-metrics dir]
//	            [-cpuprofile cpu.out] [-memprofile mem.out] [-pprof addr]
//	experiments -campaign safety [-faults k1,k2] [-rates r1,r2] [-seed s] [-n N]
//	experiments -campaign conform [-seed s] [-n N]
//	experiments -plan spec.json [-j N] [-metrics dir]
//
// -plan runs a serialized plan spec (rt.PlanSpec, the same JSON wire
// format cmd/visad accepts over POST /v1/jobs) on the local engine — the
// offline twin of submitting it to a daemon; the report is byte-identical
// either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/obs"
	"visa/internal/ooo"
	"visa/internal/rt"
)

func main() {
	n := flag.Int("n", rt.Instances, "task instances per experiment")
	j := flag.Int("j", runtime.NumCPU(), "parallel experiment workers")
	t3 := flag.Bool("table3", false, "regenerate Table 3")
	f2 := flag.Bool("fig2", false, "regenerate Figure 2")
	f3 := flag.Bool("fig3", false, "regenerate Figure 3")
	f4 := flag.Bool("fig4", false, "regenerate Figure 4")
	spec := flag.Bool("spec", false, "print the modelled configuration (Table 1, §3.2)")
	all := flag.Bool("all", false, "run everything")
	metricsDir := flag.String("metrics", "", "directory for machine-readable metrics (JSONL per experiment)")
	planPath := flag.String("plan", "", "run a serialized plan spec (JSON, the visad wire format) instead of the built-in figures")
	campaign := flag.String("campaign", "", "run a named campaign instead of the figures (safety)")
	faults := flag.String("faults", "", "comma-separated fault kinds for -campaign safety (default: all)")
	rates := flag.String("rates", "", "comma-separated injection rates per 1000 (default: 50,250)")
	seed := flag.Uint64("seed", 0, "base seed for -campaign safety")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	ps, err := obs.StartProfile(obs.ProfileOptions{
		CPUPath: *cpuprofile, MemPath: *memprofile, HTTPAddr: *pprofAddr,
	})
	check(err)
	profScope = ps
	defer stopProfile()
	if addr := ps.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	nSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			nSet = true
		}
	})

	benches := clab.All()
	if *metricsDir != "" {
		check(os.MkdirAll(*metricsDir, 0o755))
	}

	// run executes one plan on the worker pool, with metrics (when enabled)
	// merged in plan order into dir/name. The report is printed even when
	// jobs failed — the failure appendix names them — and then the first
	// failure (in plan order) exits nonzero.
	run := func(plan *rt.Plan, name string) {
		sink, done := metricsSink(*metricsDir, name)
		rep, err := (&rt.Engine{Workers: *j, Sink: sink}).Run(plan)
		check(err)
		check(done())
		fmt.Println(rep.Text)
		check(rep.Err())
	}

	if *planPath != "" {
		// A serialized plan spec — the same wire format cmd/visad serves —
		// run locally: decode, validate, execute, print the report.
		data, err := os.ReadFile(*planPath)
		check(err)
		spec, err := rt.DecodePlanSpec(data)
		check(err)
		check(spec.Validate())
		plan, err := spec.Plan()
		check(err)
		run(plan, plan.Name+".jsonl")
		return
	}

	// paper builds a paper plan through its wire form, so the flags reach
	// the same parsing and range checks as a submitted PlanSpec.
	paper := func(spec rt.PlanSpec) {
		spec.Version = rt.SpecVersion
		plan, err := spec.Plan()
		check(err)
		run(plan, plan.Name+".jsonl")
	}

	switch *campaign {
	case "":
	case "safety":
		// The campaign has its own default instance count; -n overrides it.
		spec := rt.PlanSpec{Kind: rt.PlanSafety, Seed: *seed}
		if nSet {
			spec.Instances = *n
		}
		if *faults != "" {
			for _, k := range strings.Split(*faults, ",") {
				spec.Faults = append(spec.Faults, strings.TrimSpace(k))
			}
		}
		if *rates != "" {
			for _, f := range strings.Split(*rates, ",") {
				r, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					check(fmt.Errorf("bad rate %q: %v", f, err))
				}
				spec.Rates = append(spec.Rates, r)
			}
		}
		paper(spec)
		return
	case "conform":
		// N generated programs (its own default; -n overrides) plus every
		// benchmark, through the cross-model conformance oracle.
		c := conform.Campaign{Seed: *seed}
		if nSet {
			c.N = *n
		}
		run(conform.CampaignPlan(benches, c), "conform.jsonl")
		return
	default:
		check(fmt.Errorf("unknown campaign %q (have: safety, conform)", *campaign))
	}

	if !*t3 && !*f2 && !*f3 && !*f4 && !*spec && !*all {
		*all = true
	}
	if *spec || *all {
		printSpec()
	}
	if *t3 || *all {
		paper(rt.PlanSpec{Kind: rt.PlanTable3})
	}
	for _, fig := range []struct {
		on   bool
		kind string
	}{{*f2, rt.PlanFig2}, {*f3, rt.PlanFig3}, {*f4, rt.PlanFig4}} {
		if fig.on || *all {
			paper(rt.PlanSpec{Kind: fig.kind, Instances: *n})
		}
	}
}

// metricsSink opens dir/name as a metrics stream, returning the sink to
// pass into the experiment and a closer that flushes and reports errors.
// With no -metrics directory it returns a nil sink (instrumentation off).
func metricsSink(dir, name string) (*obs.Sink, func() error) {
	if dir == "" {
		return nil, func() error { return nil }
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	check(err)
	mw := obs.NewMetricsWriter(f)
	return &obs.Sink{Metrics: mw}, func() error {
		if err := mw.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

func printSpec() {
	cc := cache.VISAL1
	ms := memsys.Default
	ox := ooo.Default
	fmt.Println("TABLE 1. VISA caches and latencies.")
	fmt.Printf("  L1 I-cache & D-cache:        %dKB, %d-way set-assoc., %dB block, 1 cycle hit\n",
		cc.SizeBytes/1024, cc.Assoc, cc.BlockBytes)
	fmt.Printf("  worst-case memory stall:     %.0f ns\n", ms.WorstLatNs)
	fmt.Printf("  execution latencies:         R10K-class (mul %d, div %d, fadd %d, fmul %d, fdiv %d)\n",
		isa.MUL.Latency(), isa.DIV.Latency(), isa.FADD.Latency(), isa.FMUL.Latency(), isa.FDIV.Latency())
	fmt.Println("Complex processor (§3.2):")
	fmt.Printf("  %d-way superscalar, %d-entry ROB, %d-entry IQ, %d-entry LSQ,\n",
		ox.FetchWidth, ox.ROBSize, ox.IQSize, ox.LSQSize)
	fmt.Printf("  %d pipelined universal FUs, %d cache ports, 2^%d gshare + indirect table\n",
		ox.FUCount, ox.CachePorts, ox.GshareBits)
	fmt.Println()
}

// profScope is the process-wide profiling scope (nil when profiling is
// off); error exits flush it so partial profiles stay loadable.
var profScope *obs.ProfileScope

func stopProfile() {
	if err := profScope.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: profile:", err)
	}
	profScope = nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		stopProfile()
		os.Exit(1)
	}
}

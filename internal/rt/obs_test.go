package rt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"visa/internal/clab"
	"visa/internal/obs"
)

// fullSink builds a sink with every surface backed by in-memory buffers:
// tracer, metrics writer with its coalescing counter sink, and registry.
func fullSink() (*obs.Sink, *bytes.Buffer) {
	var metrics bytes.Buffer
	mw := obs.NewMetricsWriter(&metrics, obs.FormatJSONL)
	return &obs.Sink{
		Trace:    obs.NewTracer(),
		Metrics:  mw,
		Counters: obs.NewCoalescingSink(mw, obs.CoalesceOptions{}),
		Registry: obs.NewRegistry(),
	}, &metrics
}

// closeSink flushes the sink's counters into its metrics writer, then
// closes the writer.
func closeSink(t *testing.T, sink *obs.Sink) {
	t.Helper()
	if err := sink.Counters.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
}

// decodeJSONL parses a JSONL stream into generic records.
func decodeJSONL(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsDeterminism: running the same experiment twice with fresh sinks
// must produce byte-identical metrics and trace output — the simulator's
// reproducibility guarantee extends to its telemetry. The flush injection
// exercises the full event vocabulary (checkpoint misses, mode switches).
func TestObsDeterminism(t *testing.T) {
	run := func() (string, string) {
		sink, metrics := fullSink()
		_, err := RunComparison(clab.ByName("cnt"), Config{
			Tight: true, Instances: 25, FlushTasks: 7,
			Obs: sink, Label: "det",
		})
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := sink.Trace.WriteChrome(&trace); err != nil {
			t.Fatal(err)
		}
		closeSink(t, sink)
		return metrics.String(), trace.String()
	}
	m1, tr1 := run()
	m2, tr2 := run()
	if m1 != m2 {
		t.Error("metrics output differs between identical runs")
	}
	if tr1 != tr2 {
		t.Error("trace output differs between identical runs")
	}
	if !json.Valid([]byte(tr1)) {
		t.Error("trace is not valid JSON")
	}
	if len(m1) == 0 || len(tr1) == 0 {
		t.Error("instrumented run produced empty output")
	}
}

// TestObsDoesNotPerturbSimulation: attaching the full sink must not change
// any simulated result — same energies, misses, and final frequencies as
// the uninstrumented run.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	cfg := Config{Tight: true, Instances: 25, FlushTasks: 7}
	plain, err := RunComparison(clab.ByName("cnt"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := fullSink()
	cfg.Obs, cfg.Label = sink, "perturb"
	obsd, err := RunComparison(clab.ByName("cnt"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Complex.Energy != obsd.Complex.Energy ||
		plain.Simple.Energy != obsd.Simple.Energy {
		t.Errorf("instrumentation changed energy: %v/%v vs %v/%v",
			plain.Complex.Energy, plain.Simple.Energy,
			obsd.Complex.Energy, obsd.Simple.Energy)
	}
	if plain.Complex.MissedTasks != obsd.Complex.MissedTasks {
		t.Errorf("instrumentation changed missed tasks: %d vs %d",
			plain.Complex.MissedTasks, obsd.Complex.MissedTasks)
	}
	if plain.Complex.FinalSpecMHz != obsd.Complex.FinalSpecMHz {
		t.Errorf("instrumentation changed final frequency: %d vs %d",
			plain.Complex.FinalSpecMHz, obsd.Complex.FinalSpecMHz)
	}
}

// TestInstanceRecordsReconcile: the per-instance counters and histograms
// must aggregate back to the ProcResult — the instance count matches,
// missed instances match the counter, and no instance's deadline slack is
// negative.
func TestInstanceRecordsReconcile(t *testing.T) {
	const n = 25
	sink, metrics := fullSink()
	row, err := RunComparison(clab.ByName("cnt"), Config{
		Tight: true, Instances: n, FlushTasks: 7,
		Obs: sink, Label: "agg",
	})
	if err != nil {
		t.Fatal(err)
	}
	closeSink(t, sink)

	totals := counterTotals(t, metrics.String())
	hists := map[string]map[string]any{}
	for _, r := range decodeJSONL(t, metrics.Bytes()) {
		if r["kind"] == "hist" {
			hists[r["name"].(string)] = r
		}
	}
	for _, proc := range []struct {
		name string
		res  *ProcResult
	}{
		{"complex", row.Complex},
		{"simple-fixed", row.Simple},
	} {
		prefix := "agg.cnt." + proc.name
		if got := totals[prefix+".instances"]; got != n {
			t.Errorf("%s: instances counter %d, want %d", proc.name, got, n)
		}
		if got := totals[prefix+".missed"]; got != int64(proc.res.MissedTasks) {
			t.Errorf("%s: missed counter %d, ProcResult says %d", proc.name, got, proc.res.MissedTasks)
		}
		for _, name := range []string{".hist.instance_cycles", ".hist.deadline_slack_ns"} {
			h := hists[prefix+name]
			if h == nil {
				t.Fatalf("%s: no %s hist record", proc.name, name)
			}
			if got := h["count"].(float64); got != n {
				t.Errorf("%s%s: count %v, want %d", proc.name, name, got, n)
			}
		}
		if min := hists[prefix+".hist.deadline_slack_ns"]["min"].(float64); min < 0 {
			t.Errorf("%s: an instance exceeded its deadline (min slack %v ns)", proc.name, min)
		}
	}
}

// TestTable3Records: the machine-readable table3 records must carry exactly
// the printed rows, and the per-sub-task records must cover each benchmark's
// sub-tasks.
func TestTable3Records(t *testing.T) {
	var metrics bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics, obs.FormatJSONL)}
	rep, err := (&Engine{Workers: 1, Sink: sink}).Run(Table3Plan(clab.All()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rows := rep.Table3Rows()
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	byBench := map[string]map[string]any{}
	subCount := map[string]int{}
	for _, r := range decodeJSONL(t, metrics.Bytes()) {
		switch r["kind"] {
		case "table3":
			byBench[r["bench"].(string)] = r
		case "table3_subtask":
			subCount[r["bench"].(string)]++
		}
	}
	if len(byBench) != len(rows) {
		t.Fatalf("%d table3 records for %d rows", len(byBench), len(rows))
	}
	for _, row := range rows {
		rec := byBench[row.Name]
		if rec == nil {
			t.Fatalf("no table3 record for %s", row.Name)
		}
		if got := rec["wcet_us"].(float64); got != row.WCETUs {
			t.Errorf("%s: wcet_us %v != row %v", row.Name, got, row.WCETUs)
		}
		if got := rec["simple_us"].(float64); got != row.SimpleUs {
			t.Errorf("%s: simple_us %v != row %v", row.Name, got, row.SimpleUs)
		}
		if got := int(rec["dyn_insts"].(float64)); got != int(row.DynInsts) {
			t.Errorf("%s: dyn_insts %v != row %v", row.Name, got, row.DynInsts)
		}
		if subCount[row.Name] != row.SubTasks {
			t.Errorf("%s: %d sub-task records, want %d", row.Name, subCount[row.Name], row.SubTasks)
		}
	}
}

// TestTraceEventVocabulary: with misprediction injection the trace must show
// the whole VISA protocol — sub-task slices, checkpoint passes, checkpoint
// misses with EQ4 mode switches, recovery spans, and watchdog counters — and
// every complete event must have non-negative duration.
func TestTraceEventVocabulary(t *testing.T) {
	sink, _ := fullSink()
	_, err := RunComparison(clab.ByName("cnt"), Config{
		Tight: true, Instances: 25, FlushTasks: 7,
		Obs: sink, Label: "vocab",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	seen := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Dur < 0 {
			t.Errorf("negative duration on %q", e.Name)
		}
		if e.Ts < 0 {
			t.Errorf("negative timestamp on %q", e.Name)
		}
		switch {
		case e.Name == "task instance":
			seen["task"]++
		case strings.HasPrefix(e.Name, "sub-task "):
			seen["subtask"]++
		case strings.HasPrefix(e.Name, "checkpoint ") && strings.HasSuffix(e.Name, "pass"):
			seen["pass"]++
		case e.Name == "checkpoint miss":
			seen["miss"]++
		case e.Name == "mode-switch (simple)":
			seen["modeswitch"]++
		case e.Name == "recovery (simple mode)":
			seen["recovery"]++
		case e.Name == "watchdog margin":
			seen["watchdog"]++
		case e.Name == "cache+predictor flush":
			seen["flush"]++
		}
	}
	for _, want := range []string{"task", "subtask", "pass", "miss", "modeswitch", "recovery", "watchdog", "flush"} {
		if seen[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, seen)
		}
	}
	// Both processors × 25 instances, one task slice each.
	if seen["task"] != 2*25 {
		t.Errorf("task slices = %d, want 50", seen["task"])
	}
}

// TestRegistryCoversSubsystems: after an instrumented run the counter
// registry must expose cache, bus, pipeline, and power series for both
// processors, and the cache counters must be non-trivial.
func TestRegistryCoversSubsystems(t *testing.T) {
	sink, _ := fullSink()
	_, err := RunComparison(clab.ByName("cnt"), Config{
		Tight: true, Instances: 10, Obs: sink, Label: "reg",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := sink.Registry.Snapshot()
	byName := map[string]obs.Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	for _, name := range []string{
		"reg.cnt.complex.icache.accesses",
		"reg.cnt.complex.dcache.misses",
		"reg.cnt.complex.bus.requests",
		"reg.cnt.complex.pipe.retired",
		"reg.cnt.complex.pipe.rob_stalls",
		"reg.cnt.complex.pipe.branch_mispredicts",
		"reg.cnt.complex.power.energy.total",
		"reg.cnt.simple-fixed.icache.accesses",
		"reg.cnt.simple-fixed.pipe.retired",
		"reg.cnt.simple-fixed.power.energy.total",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("registry missing %q (have %d series)", name, len(snap))
		}
	}
	if byName["reg.cnt.complex.icache.accesses"].Int() == 0 {
		t.Error("complex icache access counter stayed zero across a run")
	}
	if byName["reg.cnt.complex.power.energy.total"].Value <= 0 {
		t.Error("energy gauge not positive")
	}
	// Snapshot must be sorted (deterministic export order).
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot unsorted at %d: %q > %q", i, snap[i-1].Name, snap[i].Name)
		}
	}
}

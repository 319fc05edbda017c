package rt

import (
	"bytes"
	"strings"
	"testing"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/obs"
)

// smallSafetyPlan is a cut-down safety campaign — enough jobs (8) to make a
// wide worker pool meaningful, small enough to run in test time.
func smallSafetyPlan() *Plan {
	return SafetyCampaignPlan(clab.All()[:2], SafetyCampaign{
		Kinds:     fault.Kinds()[:2],
		Rates:     []int{250},
		Instances: 12,
		Seed:      7,
	})
}

// runCoalesced executes the plan with the given worker count, returning
// the report and the metrics bytes.
func runCoalesced(t *testing.T, workers int) (*Report, string) {
	t.Helper()
	var metrics bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics)}
	rep, err := (&Engine{Workers: workers, Sink: sink}).Run(smallSafetyPlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, metrics.String()
}

// TestCoalescedCampaignDeterminism: the campaign's report and coalesced
// metrics stream must be byte-identical for any worker count — the per-job
// sinks flush into per-job buffers replayed in plan order.
func TestCoalescedCampaignDeterminism(t *testing.T) {
	rep1, m1 := runCoalesced(t, 1)
	rep8, m8 := runCoalesced(t, 8)
	if rep1.Text != rep8.Text {
		t.Error("report text differs between -j 1 and -j 8")
	}
	if m1 != m8 {
		t.Error("metrics stream differs between -j 1 and -j 8")
	}

	recs := decodeJSONL(t, []byte(m1))
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r["kind"].(string)]++
	}
	if kinds["counter.flush"] == 0 {
		t.Error("campaign emitted no counter.flush records")
	}
	if kinds["hist"] == 0 {
		t.Error("campaign emitted no hist records (distributions lost)")
	}
	if kinds["safety"] == 0 {
		t.Error("campaign lost its safety rows")
	}
	// Counters have exactly one path: no per-event record kinds at all.
	for _, gone := range []string{"instance", "fault.injected", "watchdog.fired"} {
		if kinds[gone] != 0 {
			t.Errorf("%d per-event %q records bypassed the coalescing sink", kinds[gone], gone)
		}
	}
}

// counterTotals reads a coalesced stream's final total per key. Totals are
// cumulative; within one job each key flushes with its final total last,
// and keys are label-prefixed so jobs never collide.
func counterTotals(t *testing.T, metrics string) map[string]int64 {
	t.Helper()
	totals := map[string]int64{}
	for _, r := range decodeJSONL(t, []byte(metrics)) {
		if r["kind"] == "counter.flush" {
			totals[r["key"].(string)] = int64(r["total"].(float64))
		}
	}
	return totals
}

// sumSuffix adds up the totals of every key ending in suffix.
func sumSuffix(totals map[string]int64, suffix string) int64 {
	var s int64
	for k, v := range totals {
		if strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

// checkSafetyCounters reconciles a safety campaign's coalesced counters
// with its report rows: coalescing changes the encoding, never the
// accounting.
func checkSafetyCounters(t *testing.T, rep *Report, metrics string, instances int) {
	t.Helper()
	var faults, missed int64
	for _, row := range rep.SafetyRows() {
		faults += row.Complex.Faults + row.Simple.Faults
		missed += int64(row.Complex.Missed + row.Simple.Missed)
	}
	if faults == 0 {
		t.Error("campaign injected no faults at all: the sweep is vacuous")
	}
	totals := counterTotals(t, metrics)
	if got := sumSuffix(totals, ".fault.injected"); got != faults {
		t.Errorf("coalesced fault.injected total = %d, rows say %d", got, faults)
	}
	if got := sumSuffix(totals, ".missed"); got != missed {
		t.Errorf("coalesced missed total = %d, rows say %d", got, missed)
	}
	// Both processors run every instance of every cell.
	if got, want := sumSuffix(totals, ".instances"), int64(2*instances*len(rep.Plan.Jobs)); got != want {
		t.Errorf("coalesced instances total = %d, want %d", got, want)
	}
}

// TestCoalescedCountersReconcile: the net totals in the coalesced stream
// equal the report's event counts, and the stream carries fewer records
// than there were countable events.
func TestCoalescedCountersReconcile(t *testing.T) {
	rep, metrics := runCoalesced(t, 4)
	checkSafetyCounters(t, rep, metrics, 12)
	events := sumSuffix(counterTotals(t, metrics), ".instances")
	if recs := len(decodeJSONL(t, []byte(metrics))); int64(recs) >= events {
		t.Errorf("coalesced stream has %d records for %d instances — no compression", recs, events)
	}
}

// TestCoalescedComparisonPlans: the determinism contract also holds on the
// figure plans (RunComparison jobs), where the dominant traffic is
// per-instance counters.
func TestCoalescedComparisonPlans(t *testing.T) {
	run := func(workers int) (string, string) {
		var metrics bytes.Buffer
		sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics)}
		rep, err := (&Engine{Workers: workers, Sink: sink}).Run(Figure2Plan(clab.All()[:3], 15))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Metrics.Close(); err != nil {
			t.Fatal(err)
		}
		return rep.Text, metrics.String()
	}
	t1, m1 := run(1)
	t8, m8 := run(8)
	if t1 != t8 || m1 != m8 {
		t.Error("figure plan not byte-identical across worker counts")
	}
	var flush, hist int
	for _, r := range decodeJSONL(t, []byte(m1)) {
		switch r["kind"] {
		case "counter.flush":
			flush++
		case "hist":
			hist++
		}
	}
	if flush == 0 || hist == 0 {
		t.Errorf("figure plan stream: %d counter.flush / %d hist records", flush, hist)
	}
}

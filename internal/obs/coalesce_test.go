package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// coalescer builds a sink over an in-memory JSONL writer.
func coalescer(o CoalesceOptions) (*CoalescingSink, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewCoalescingSink(NewMetricsWriter(&buf), o), &buf
}

// TestCoalescingNil: the whole surface must be a no-op through nil.
func TestCoalescingNil(t *testing.T) {
	var c *CoalescingSink
	c.Add("k", 1)
	c.FlushAll()
	c.SeedBaseline("k", 5)
	if c.Total("k") != 0 || c.Baseline("k") != 0 || c.Flushes() != 0 || c.Distinct() != 0 {
		t.Error("nil coalescing sink not a no-op")
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
	var s *Sink
	if s.C() != nil {
		t.Error("nil sink must hand out a nil coalescer")
	}
}

// TestCoalescingThetaI is the Θ(I) property: N events over I distinct keys
// must produce at most I durable records per flush epoch, independent of N.
func TestCoalescingThetaI(t *testing.T) {
	const n, keys = 100000, 8
	c, buf := coalescer(CoalesceOptions{Threshold: -1, MaxAge: -1}) // flush only at Close
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("k%d", i%keys), 1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Flushes() != keys {
		t.Errorf("%d events over %d keys flushed %d records, want exactly %d",
			n, keys, c.Flushes(), keys)
	}
	recs := decodeLines(t, buf.Bytes())
	if len(recs) != keys {
		t.Fatalf("durable stream has %d records, want %d", len(recs), keys)
	}
	for _, r := range recs {
		if r["kind"] != "counter.flush" {
			t.Errorf("unexpected record kind %v", r["kind"])
		}
		if r["delta"].(float64) != n/keys || r["total"].(float64) != n/keys {
			t.Errorf("record %v: want delta=total=%d", r, n/keys)
		}
	}
}

// TestCoalescingSelfCancelling: traffic that nets to zero must cost zero
// durable work — the VSA motivation (reserve → cancel cancels in RAM).
func TestCoalescingSelfCancelling(t *testing.T) {
	c, buf := coalescer(CoalesceOptions{Threshold: 100, MaxAge: 10})
	for i := 0; i < 50000; i++ {
		c.Add("hot", +1)
		c.Add("hot", -1)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != 0 {
		t.Errorf("self-cancelling traffic wrote %d durable bytes, want 0", got)
	}
	if c.Total("hot") != 0 {
		t.Errorf("net total = %d, want 0", c.Total("hot"))
	}
}

// TestCoalescingThresholdFlush: |Δ| reaching the threshold flushes that key
// immediately, with the cumulative total carried on every record.
func TestCoalescingThresholdFlush(t *testing.T) {
	c, buf := coalescer(CoalesceOptions{Threshold: 10, MaxAge: -1})
	for i := 0; i < 25; i++ {
		c.Add("k", 1)
	}
	if c.Flushes() != 2 {
		t.Errorf("25 adds at threshold 10: %d flushes, want 2", c.Flushes())
	}
	if c.Baseline("k") != 20 || c.Total("k") != 25 {
		t.Errorf("S=%d Δ-inclusive total=%d, want 20/25", c.Baseline("k"), c.Total("k"))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeLines(t, buf.Bytes())
	wantTotals := []float64{10, 20, 25}
	if len(recs) != len(wantTotals) {
		t.Fatalf("%d records, want %d", len(recs), len(wantTotals))
	}
	for i, r := range recs {
		if r["total"].(float64) != wantTotals[i] {
			t.Errorf("record %d total = %v, want %v", i, r["total"], wantTotals[i])
		}
	}
	// Negative deltas trigger on magnitude too.
	c2, _ := coalescer(CoalesceOptions{Threshold: 10, MaxAge: -1})
	c2.Add("neg", -10)
	if c2.Flushes() != 1 || c2.Baseline("neg") != -10 {
		t.Errorf("negative threshold flush: flushes=%d S=%d", c2.Flushes(), c2.Baseline("neg"))
	}
}

// TestCoalescingAgeFlush: a dirty key left alone must surface after MaxAge
// Add operations (logical age), even when its |Δ| never nears the threshold.
func TestCoalescingAgeFlush(t *testing.T) {
	c, _ := coalescer(CoalesceOptions{Threshold: 1 << 30, MaxAge: 16})
	c.Add("idle", 3)
	for i := 0; i < 20; i++ {
		c.Add("busy", 1)
	}
	if c.Baseline("idle") != 3 {
		t.Errorf("idle key not age-flushed: S=%d, want 3", c.Baseline("idle"))
	}
	// Flushing clean keys emits nothing.
	before := c.Flushes()
	c.FlushAll()
	c.FlushAll()                 // idempotent: S ← S⊕Δ with Δ=0 must be a no-op
	if c.Flushes() != before+1 { // busy still dirty at first FlushAll
		t.Errorf("flushes went %d → %d; idempotent re-flush must not emit", before, c.Flushes())
	}
}

// TestCoalescingDeterminism: the durable stream is byte-identical across
// identical operation sequences, with Close-order sorted by key.
func TestCoalescingDeterminism(t *testing.T) {
	run := func() string {
		c, buf := coalescer(CoalesceOptions{Threshold: 7, MaxAge: 11})
		for i := 0; i < 1000; i++ {
			c.Add(fmt.Sprintf("k%d", (i*13)%5), int64(i%3-1))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Error("identical op sequences produced different durable streams")
	}
}

// TestCoalescingCrashRestart simulates losing the in-memory Δ before a
// flush: the durable stream must stay consistent (a temporary under-count,
// never an over-count), replaying it must be idempotent, and a restarted
// sink seeded from the stream must resume exact accounting.
func TestCoalescingCrashRestart(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMetricsWriter(&buf)

	// Epoch 1: 27 admitted, threshold flushes cover 20 of them, then the
	// process "crashes" — the sink (and its Δ=7) is simply dropped.
	c1 := NewCoalescingSink(mw, CoalesceOptions{Threshold: 10, MaxAge: -1})
	for i := 0; i < 27; i++ {
		c1.Add("adm", 1)
	}
	if c1.Baseline("adm") != 20 || c1.Total("adm") != 27 {
		t.Fatalf("pre-crash S=%d total=%d, want 20/27", c1.Baseline("adm"), c1.Total("adm"))
	}
	// (no Close: Δ=7 is lost)

	// The durable stream under-counts (20 < 27) and never over-counts.
	rec1 := recordsOf(t, buf.Bytes())
	base := RestoreBaselines(rec1)
	if base["adm"] != 20 {
		t.Fatalf("recovered baseline %d, want 20 (the flushed prefix)", base["adm"])
	}
	if base["adm"] > 27 {
		t.Fatal("durable stream over-counts after crash")
	}

	// Replay is idempotent: applying the stream again changes nothing.
	if again := RestoreBaselines(append(append([]Record{}, rec1...), rec1...)); again["adm"] != base["adm"] {
		t.Errorf("double replay drifted: %d != %d", again["adm"], base["adm"])
	}

	// Epoch 2: restart from the recovered baselines and admit 5 more.
	c2 := NewCoalescingSink(mw, CoalesceOptions{Threshold: 10, MaxAge: -1})
	for k, total := range base {
		c2.SeedBaseline(k, total)
	}
	for i := 0; i < 5; i++ {
		c2.Add("adm", 1)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Final durable state: exactly the flushed-before-crash 20 plus the 5
	// post-restart — monotone totals, last record wins.
	final := RestoreBaselines(recordsOf(t, buf.Bytes()))
	if final["adm"] != 25 {
		t.Errorf("final durable total %d, want 25 (20 flushed + 5 after restart)", final["adm"])
	}
	prev := int64(-1 << 62)
	for _, r := range recordsOf(t, buf.Bytes()) {
		if tot := int64(r.Get("total").(float64)); tot < prev {
			t.Errorf("baseline not monotone: %d after %d", tot, prev)
		} else {
			prev = tot
		}
	}
}

// recordsOf reparses a JSONL stream into Records (Get-compatible).
func recordsOf(t *testing.T, b []byte) []Record {
	t.Helper()
	var out []Record
	for _, m := range decodeLines(t, b) {
		var r Record
		for k, v := range m {
			//visa:allow(detlint): test-only reparse; consumers use Get(key), never field order
			r = append(r, F(k, v))
		}
		out = append(out, r)
	}
	return out
}

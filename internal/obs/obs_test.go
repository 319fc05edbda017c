package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilSinkNoOps: every entry point must be callable through nil
// receivers — the disabled path of the whole instrumentation layer.
func TestNilSinkNoOps(t *testing.T) {
	var sink *Sink
	tr, mw, cs := sink.T(), sink.M(), sink.C()
	if tr != nil || mw != nil || cs != nil {
		t.Fatal("nil sink must hand out nil surfaces")
	}
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	pid := tr.Pid("p")
	tr.ThreadName(pid, 0, "t")
	tr.Complete(pid, 0, "c", "n", 0, 1)
	tr.Instant(pid, 0, "c", "n", 0)
	tr.Counter(pid, "n", 0, A("v", 1))
	if tr.Len() != 0 {
		t.Error("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output is not valid JSON: %v", err)
	}

	mw.Write(Record{F("k", 1)})
	if mw.Count() != 0 || mw.Err() != nil || mw.Close() != nil {
		t.Error("nil metrics writer not a no-op")
	}

	var reg *Registry
	reg.Counter("a", func() int64 { return 1 })
	if reg.Snapshot() != nil {
		t.Error("nil registry not a no-op")
	}
}

func TestRegistrySnapshotSortedAndReplaced(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.count", func() int64 { return 3 })
	reg.Counter("a.count", func() int64 { return 1 })
	reg.Counter("m.count", func() int64 { return 7 })
	// Re-registration replaces (idempotent wiring across runs).
	reg.Counter("z.count", func() int64 { return 4 })

	snap := reg.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	wantNames := []string{"a.count", "m.count", "z.count"}
	for i, s := range snap {
		if s.Name != wantNames[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, s.Name, wantNames[i])
		}
	}
	if snap[2].Value != 4 {
		t.Errorf("replaced counter = %d, want 4", snap[2].Value)
	}
}

// TestChromeTraceShape checks that the exporter produces the catapult JSON
// object form with the fields the trace viewers require.
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer()
	pid := tr.Pid("cnt/complex")
	tr.ThreadName(pid, 1, "sub-tasks")
	tr.Complete(pid, 1, "subtask", "sub-task 0", 1000, 500, A("k", 0))
	tr.Instant(pid, 2, "visa", "checkpoint-miss", 1500, A("sub_task", 3))
	tr.Counter(pid, "watchdog", 1500, A("margin_cycles", 42))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// process_name metadata + 2 named metadata-free events + counter + thread_name.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		byPh[ph]++
		if _, ok := e["pid"].(float64); !ok {
			t.Errorf("event %v missing pid", e)
		}
	}
	if byPh["M"] != 2 || byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 {
		t.Errorf("phase counts = %v", byPh)
	}
	// ts is microseconds: the 1000 ns complete event starts at ts=1.
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			if e["ts"].(float64) != 1 || e["dur"].(float64) != 0.5 {
				t.Errorf("complete event ts/dur = %v/%v, want 1/0.5", e["ts"], e["dur"])
			}
		}
	}
}

// TestTraceDeterminism: identical emission sequences produce identical
// bytes.
func TestTraceDeterminism(t *testing.T) {
	emit := func() string {
		tr := NewTracer()
		pid := tr.Pid("p")
		for i := 0; i < 50; i++ {
			tr.Complete(pid, 0, "c", "e", float64(i*10), 5,
				A("i", i), A("x", float64(i)*1.5), A("s", "v"))
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if emit() != emit() {
		t.Fatal("trace output not deterministic")
	}
}

func TestMetricsJSONLPreservesOrder(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMetricsWriter(&buf)
	mw.Write(Record{F("kind", "instance"), F("n", 1), F("x", 2.5), F("ok", true)})
	mw.Write(Record{F("kind", "instance"), F("n", 2), F("x", 3.5), F("ok", false)})
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || mw.Count() != 2 {
		t.Fatalf("got %d lines / %d count", len(lines), mw.Count())
	}
	want := `{"kind":"instance","n":1,"x":2.5,"ok":true}`
	if lines[0] != want {
		t.Errorf("line 0 = %s, want %s", lines[0], want)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatalf("line 1 invalid JSON: %v", err)
	}
}

// decodeLines parses a JSONL byte stream into one map per line (shared
// helper for the exporter-facing tests).
func decodeLines(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

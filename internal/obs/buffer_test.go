package obs

import (
	"bytes"
	"testing"
)

// TestRecordBufferReplay: buffering records and replaying them into a real
// writer must produce byte-identical output to writing them directly — the
// property the parallel experiment engine's deterministic merge rests on.
func TestRecordBufferReplay(t *testing.T) {
	recs := []Record{
		{F("kind", "summary"), F("bench", "cnt"), F("savings", 0.43), F("n", int64(200))},
		{F("kind", "instance"), F("bench", "cnt"), F("instance", 0), F("missed", false)},
		{F("kind", "instance"), F("bench", "cnt"), F("instance", 1), F("missed", true)},
	}

	var direct bytes.Buffer
	dw := NewMetricsWriter(&direct)
	for _, r := range recs {
		dw.Write(r)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}

	buf := NewRecordBuffer()
	for _, r := range recs {
		buf.Write(r)
	}
	if got := len(buf.Records()); got != len(recs) {
		t.Fatalf("buffered %d records, want %d", got, len(recs))
	}

	var replayed bytes.Buffer
	rw := NewMetricsWriter(&replayed)
	buf.Replay(rw)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	if direct.String() != replayed.String() {
		t.Errorf("replayed bytes differ from direct writes:\n--- direct ---\n%s--- replayed ---\n%s",
			direct.String(), replayed.String())
	}
	if direct.Len() == 0 {
		t.Error("no output written")
	}
}

// TestRecordBufferNilSafe: like every obs surface, a nil buffer must be a
// no-op, and replaying into a nil destination must not panic.
func TestRecordBufferNilSafe(t *testing.T) {
	var m *MetricsWriter
	if got := m.Records(); got != nil {
		t.Errorf("nil Records() = %v, want nil", got)
	}
	m.Replay(nil)
	m.Reset()
	buf := NewRecordBuffer()
	buf.Write(Record{F("kind", "x")})
	buf.Replay(nil)
}

// TestRecordBufferReset: Reset drains a buffer for batch consumers (the
// service journal) while the lifetime Count keeps accumulating; streaming
// writers ignore it.
func TestRecordBufferReset(t *testing.T) {
	buf := NewRecordBuffer()
	buf.Write(Record{F("kind", "a")})
	buf.Write(Record{F("kind", "b")})
	buf.Reset()
	if got := len(buf.Records()); got != 0 {
		t.Fatalf("after Reset: %d records retained, want 0", got)
	}
	buf.Write(Record{F("kind", "c")})
	if got := buf.Records(); len(got) != 1 || got[0].Get("kind") != "c" {
		t.Fatalf("post-Reset write: records = %v", got)
	}
	if buf.Count() != 3 {
		t.Errorf("lifetime Count = %d, want 3", buf.Count())
	}

	var out bytes.Buffer
	sw := NewMetricsWriter(&out)
	sw.Write(Record{F("kind", "stream")})
	sw.Reset() // no-op on streaming writers
	if out.Len() == 0 {
		t.Error("streaming output vanished after Reset")
	}
}

package obs

import (
	"io"
	"testing"
)

// BenchmarkNilTracer measures the disabled path: a traced call site through
// a nil *Tracer. This is the entire per-event cost visasim's simulation
// loop pays with -trace off (the pipelines' per-instruction paths carry no
// obs calls at all — counters are sampled lazily at snapshot time).
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Complete(1, 0, "c", "e", float64(i), 1, A("k", i))
	}
}

// BenchmarkTracerComplete measures the enabled per-event recording cost.
func BenchmarkTracerComplete(b *testing.B) {
	tr := NewTracer()
	pid := tr.Pid("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Complete(pid, 0, "c", "e", float64(i), 1, A("k", i))
		if tr.Len() > 1<<20 {
			b.StopTimer()
			tr.events = tr.events[:1] // keep memory bounded
			b.StartTimer()
		}
	}
}

// BenchmarkMetricsJSONL measures the per-record JSONL emission cost.
func BenchmarkMetricsJSONL(b *testing.B) {
	mw := NewMetricsWriter(io.Discard)
	for i := 0; i < b.N; i++ {
		mw.Write(Record{F("kind", "instance"), F("n", i), F("x", 2.5), F("ok", true)})
	}
	if err := mw.Close(); err != nil {
		b.Fatal(err)
	}
}

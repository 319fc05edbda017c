package obs

import (
	"fmt"
	"io"
	"testing"
)

// The sink benchmarks substantiate the Θ(I) claim operationally: the hot
// path only mutates the in-memory Δ, so durable-write cost appears only
// amortized over the flush interval. Add/threshold=1M (flushing ~never) is
// the steady state — 0 allocs/op; Add/threshold=16 (pathologically chatty,
// a flush every 16 events) pays 1/16 of a record build per op and must
// still beat BenchmarkPerEventRecordWrite — the O(N) per-event durable
// write the coalescer replaces — by an order of magnitude.

func benchSink(th int64) *CoalescingSink {
	return NewCoalescingSink(NewMetricsWriter(io.Discard),
		CoalesceOptions{Threshold: th, MaxAge: -1})
}

func BenchmarkCoalescingSinkAdd(b *testing.B) {
	for _, th := range []int64{16, 1 << 20} {
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			c := benchSink(th)
			c.Add("k", 1) // pre-create the entry: steady state, not first touch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add("k", 1)
			}
		})
	}
}

// Self-cancelling traffic: the VSA best case — durable work is zero no
// matter how many events pass through.
func BenchmarkCoalescingSinkAddCancelling(b *testing.B) {
	c := benchSink(16)
	c.Add("k", 1)
	c.Add("k", -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add("k", 1)
		c.Add("k", -1)
	}
}

// Fan-out across many live series: per-event cost must stay flat as the
// map holds more keys (hash lookup, no durable work).
func BenchmarkCoalescingSinkAddManyKeys(b *testing.B) {
	const keys = 1024
	c := benchSink(1 << 20)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("series.%04d", i)
		c.Add(names[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(names[i%keys], 1)
	}
}

// Baseline for comparison: the per-event durable write the coalescer
// replaces. This is the O(N) path — every event encodes and writes.
func BenchmarkPerEventRecordWrite(b *testing.B) {
	mw := NewMetricsWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw.Write(Record{F("kind", "event"), F("key", "k"), F("delta", int64(1))})
	}
}

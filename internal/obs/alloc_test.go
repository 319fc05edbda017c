package obs

import (
	"fmt"
	"testing"
)

// TestCoalescingSinkAddAllocs pins CoalescingSink.Add's allocations. At a
// threshold that never flushes, Add only mutates the in-memory delta: zero
// allocations for one hot key, for self-cancelling traffic and across 1024
// live keys. At threshold 16 a flush builds one record every 16 events,
// which must stay within one allocation per Add on average.
func TestCoalescingSinkAddAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime allocates in the flush path")
	}
	const calls = 1024
	names := make([]string, calls)
	for i := range names {
		names[i] = fmt.Sprintf("series.%04d", i)
	}
	for _, tc := range []struct {
		name      string
		threshold int64
		add       func(c *CoalescingSink, i int)
		max       float64 // allocations per Add
	}{
		{"one key, threshold 1<<20", 1 << 20, func(c *CoalescingSink, _ int) { c.Add("k", 1) }, 0},
		{"cancelling, threshold 16", 16, func(c *CoalescingSink, i int) { c.Add("k", int64(1-2*(i&1))) }, 0},
		{"1024 keys, threshold 1<<20", 1 << 20, func(c *CoalescingSink, i int) { c.Add(names[i], 1) }, 0},
		{"one key, threshold 16", 16, func(c *CoalescingSink, _ int) { c.Add("k", 1) }, 1},
	} {
		c := benchSink(tc.threshold)
		pass := func() {
			for i := 0; i < calls; i++ {
				tc.add(c, i)
			}
		}
		pass() // pre-create the entries: steady state, not first touch
		if got := testing.AllocsPerRun(10, pass) / calls; got > tc.max {
			t.Errorf("%s: Add allocates %.3f per call, want <= %g", tc.name, got, tc.max)
		}
	}
}

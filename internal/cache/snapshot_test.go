package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestClockRenormalize drives one 4-way set across the 2^32 clock wrap and
// pins what renormalize does: every stamp drops to 0, so the recency order
// of the lines touched before the wrap is lost and misses evict them in way
// order, not in LRU order (which would evict C, A, B).
func TestClockRenormalize(t *testing.T) {
	c := MustNew(Config{SizeBytes: 256, Assoc: 4, BlockBytes: 64}) // one set
	const a, b, cc, d = 0, 64, 128, 192                            // ways 0-3 once filled
	SetClock(c, ^uint32(0)-6)
	for _, addr := range []uint32{a, b, cc, d, a, b} { // LRU order now C, D, A, B
		c.Access(addr)
	}
	if Clock(c) != ^uint32(0) {
		t.Fatalf("clock %d before the wrapping access, want %d", Clock(c), ^uint32(0))
	}
	if !c.Access(d) { // renormalizes, then stamps D 1
		t.Fatal("D missed across the wrap")
	}
	if Clock(c) != 1 {
		t.Fatalf("clock %d after the wrap, want 1", Clock(c))
	}
	var victims []uint32
	for _, addr := range []uint32{256, 320, 384, 448} {
		resident := []uint32{}
		for _, o := range []uint32{a, b, cc, d, 256, 320, 384} {
			if c.Probe(o) {
				resident = append(resident, o)
			}
		}
		if c.Access(addr) {
			t.Fatalf("new block %d hit", addr)
		}
		for _, o := range resident {
			if !c.Probe(o) {
				victims = append(victims, o)
			}
		}
	}
	want := []uint32{a, b, cc, d}
	if len(victims) != len(want) {
		t.Fatalf("victims %v, want %v", victims, want)
	}
	for i := range want {
		if victims[i] != want[i] {
			t.Fatalf("victims %v, want %v", victims, want)
		}
	}
	if st := c.Stats(); st.Accesses != 11 || st.Misses != 8 {
		t.Errorf("stats %+v, want 11 accesses and 8 misses", st)
	}
}

// randomCache returns a small cache warmed by a random access sequence,
// with flushes, from a random clock that may be just short of the wrap.
func randomCache(r *rand.Rand) *Cache {
	c := MustNew(Config{SizeBytes: 1024, Assoc: 4, BlockBytes: 32}) // 8 sets
	if r.Intn(2) == 0 {
		SetClock(c, ^uint32(0)-uint32(r.Intn(200)))
	} else {
		SetClock(c, uint32(r.Intn(1000)))
	}
	for i, n := 0, r.Intn(300); i < n; i++ {
		if r.Intn(100) == 0 {
			c.Flush()
		}
		c.Access(uint32(r.Intn(128)) * 32)
	}
	return c
}

// sameCache reports whether a and b hold the same lines in the same order,
// at the same clock, with the same counters.
func sameCache(a, b *Cache) bool {
	var sa, sb Snapshot
	a.Snapshot(&sa)
	b.Snapshot(&sb)
	return sa.Equal(&sb) && Clock(a) == Clock(b) && a.Stats() == b.Stats()
}

// Property: a cache restored from a snapshot is indistinguishable from the
// original. Every later access sequence (across the clock wrap too) gives
// the same hits, the same victims (the same lines after every access) and
// the same Stats.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomCache(r)
		var s Snapshot
		orig.Snapshot(&s)
		restored := MustNew(orig.Config())
		restored.Access(4096) // state to overwrite
		restored.Restore(&s)
		if !sameCache(orig, restored) {
			return false
		}
		for i := 0; i < 400; i++ {
			addr := uint32(r.Intn(128)) * 32
			if orig.Access(addr) != restored.Access(addr) || !sameCache(orig, restored) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Advance lands where simulating lands. Two caches whose lines
// are Equal but whose clocks and counters differ take the same accesses;
// advancing the second by the first's end snapshot and Stats delta leaves
// it exactly where running the accesses on it does.
func TestAdvanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		first := randomCache(r)
		var start Snapshot
		first.Snapshot(&start)
		// second: Equal lines at another clock.
		second := MustNew(first.Config())
		second.Restore(&start)
		SetClock(second, uint32(r.Intn(1<<20)))
		var mid Snapshot
		second.Snapshot(&mid)
		if !mid.Equal(&start) {
			return false
		}
		seq := make([]uint32, r.Intn(300))
		for i := range seq {
			seq[i] = uint32(r.Intn(128)) * 32
		}
		before := first.Stats()
		if int64(len(seq)) > first.Headroom() {
			return true // the memo never records a task that renormalizes
		}
		for _, a := range seq {
			first.Access(a)
		}
		var end Snapshot
		first.Snapshot(&end)
		d := first.Stats().Delta(before)

		simulated := MustNew(first.Config())
		simulated.Restore(&mid)
		for _, a := range seq {
			simulated.Access(a)
		}
		second.Advance(&end, d)
		if !sameCache(second, simulated) {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := uint32(r.Intn(128)) * 32
			if second.Access(addr) != simulated.Access(addr) || !sameCache(second, simulated) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAdvanceRefusesWrap: Advance panics instead of landing past the clock
// wrap, where live execution would have renormalized.
func TestAdvanceRefusesWrap(t *testing.T) {
	c := MustNew(VISAL1)
	var s Snapshot
	c.Snapshot(&s)
	SetClock(c, ^uint32(0)-5)
	defer func() {
		if recover() == nil {
			t.Error("Advance past the wrap did not panic")
		}
	}()
	c.Advance(&s, Stats{Accesses: 6})
}

// TestSnapshotEqualIgnoresClock: the same lines touched in the same order
// at different clock values snapshot Equal; a different order does not.
func TestSnapshotEqualIgnoresClock(t *testing.T) {
	run := func(clock uint32, seq ...uint32) *Snapshot {
		c := MustNew(Config{SizeBytes: 256, Assoc: 4, BlockBytes: 64})
		SetClock(c, clock)
		for _, a := range seq {
			c.Access(a)
		}
		var s Snapshot
		c.Snapshot(&s)
		return &s
	}
	a := run(0, 0, 64, 128)
	b := run(5000, 0, 64, 128)
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Error("same order at different clocks is not Equal")
	}
	if a.Equal(run(0, 0, 64, 128, 0)) {
		t.Error("a different recency order is Equal")
	}
	if a.Equal(run(0, 0, 64, 192)) {
		t.Error("different lines are Equal")
	}
}

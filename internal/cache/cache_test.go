package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"visa/internal/obs"
)

func TestGeometry(t *testing.T) {
	c := MustNew(VISAL1)
	if got := VISAL1.Sets(); got != 256 {
		t.Errorf("VISA L1 sets = %d, want 256", got)
	}
	if c.Block(0) != 0 || c.Block(63) != 0 || c.Block(64) != 1 {
		t.Error("block extraction wrong for 64B blocks")
	}
}

// TestBadGeometryRejected covers every validation branch: New reports the
// defect as an error and MustNew turns the same defect into a panic.
func TestBadGeometryRejected(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Assoc: 4, BlockBytes: 64},     // non-positive size
		{SizeBytes: 1024, Assoc: 0, BlockBytes: 64},  // non-positive assoc
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 0},   // non-positive block
		{SizeBytes: 1000, Assoc: 3, BlockBytes: 48},  // size not divisible
		{SizeBytes: 2304, Assoc: 2, BlockBytes: 64},  // set count not 2^k (18 sets)
		{SizeBytes: 20736, Assoc: 2, BlockBytes: 81}, // block not 2^k
	}
	for _, cfg := range bad {
		c, err := New(cfg)
		if err == nil || c != nil {
			t.Errorf("New(%+v) accepted an invalid geometry", cfg)
		}
	}
	c, err := New(VISAL1)
	if err != nil || c == nil {
		t.Fatalf("New(VISAL1) = %v, %v", c, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an invalid geometry")
		}
	}()
	MustNew(Config{SizeBytes: 1000, Assoc: 3, BlockBytes: 48})
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64})
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-block access missed")
	}
	if c.Access(64) {
		t.Error("next block hit cold")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 || st.Hits() != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 8 sets of 64B: addresses 0, 512, 1024 map to set 0.
	c := MustNew(Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64})
	c.Access(0)
	c.Access(512)
	c.Access(0)    // 0 now MRU
	c.Access(1024) // evicts 512 (LRU)
	if !c.Probe(0) {
		t.Error("MRU block 0 was evicted")
	}
	if c.Probe(512) {
		t.Error("LRU block 512 survived")
	}
	if !c.Probe(1024) {
		t.Error("just-filled block missing")
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(VISAL1)
	c.Access(0)
	c.Access(4096)
	c.Flush()
	if c.Probe(0) || c.Probe(4096) {
		t.Error("flush left valid lines")
	}
	if c.Stats().Accesses != 2 {
		t.Error("flush clobbered stats")
	}
}

// Property: after touching k <= assoc distinct blocks of one set, all of
// them hit on re-access (LRU never evicts within the working set).
func TestWorkingSetFitsProperty(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Assoc: 4, BlockBytes: 64}
	setStride := uint32(cfg.Sets() * cfg.BlockBytes)
	f := func(seed int64, set uint8, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := MustNew(cfg)
		k := int(n)%cfg.Assoc + 1
		base := uint32(int(set)%cfg.Sets()) * uint32(cfg.BlockBytes)
		blocks := make([]uint32, k)
		for i := range blocks {
			blocks[i] = base + uint32(i)*setStride
		}
		// Touch each block once in random order, repeatedly.
		for pass := 0; pass < 4; pass++ {
			r.Shuffle(k, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
			for _, a := range blocks {
				hit := c.Access(a)
				if pass > 0 && !hit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: miss count never exceeds access count, and re-running the same
// access sequence on a fresh cache is deterministic.
func TestDeterminismProperty(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Assoc: 2, BlockBytes: 32}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		seq := make([]uint32, 300)
		for i := range seq {
			seq[i] = uint32(r.Intn(64)) * 32
		}
		run := func() Stats {
			c := MustNew(cfg)
			for _, a := range seq {
				c.Access(a)
			}
			return c.Stats()
		}
		s1, s2 := run(), run()
		return s1 == s2 && s1.Misses <= s1.Accesses && s1.MissRate() >= 0 && s1.MissRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStatsDelta: interval accounting via snapshot/delta must equal manual
// subtraction, and the delta's miss rate is the interval's own.
func TestStatsDelta(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2048, Assoc: 2, BlockBytes: 32})
	for i := 0; i < 100; i++ {
		c.Access(uint32(i) * 32)
	}
	snap := c.Stats()
	for i := 0; i < 50; i++ {
		c.Access(uint32(i) * 32) // some hit, some were evicted
	}
	d := c.Stats().Delta(snap)
	if d.Accesses != 50 {
		t.Errorf("delta accesses = %d, want 50", d.Accesses)
	}
	if got := c.Stats().Misses - snap.Misses; d.Misses != got {
		t.Errorf("delta misses = %d, want %d", d.Misses, got)
	}
	if d.Hits() != d.Accesses-d.Misses {
		t.Errorf("delta hits = %d", d.Hits())
	}
	if zero := (Stats{}).Delta(Stats{}); zero != (Stats{}) {
		t.Errorf("zero delta = %+v", zero)
	}
}

// TestRegisterObs: counters registered in the observability registry must
// track the live cache statistics lazily.
func TestRegisterObs(t *testing.T) {
	c := MustNew(Config{SizeBytes: 2048, Assoc: 2, BlockBytes: 32})
	reg := obs.NewRegistry()
	c.RegisterObs(reg, "l1d")
	c.Access(0)
	c.Access(0)
	vals := map[string]int64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
	}
	if vals["l1d.accesses"] != 2 || vals["l1d.misses"] != 1 || vals["l1d.hits"] != 1 {
		t.Errorf("snapshot = %v", vals)
	}
}

// Package cache implements the set-associative LRU cache timing model used
// for both L1 instruction and data caches (paper Table 1: 64 KB, 4-way,
// 64-byte blocks, 1-cycle hit). The model tracks hits and misses only;
// contents are architectural state held by the functional executor.
package cache

import (
	"bytes"
	"fmt"
	"slices"

	"visa/internal/obs"
)

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int
	Assoc      int
	BlockBytes int
}

// VISAL1 is the L1 configuration from the paper's Table 1.
var VISAL1 = Config{SizeBytes: 64 * 1024, Assoc: 4, BlockBytes: 64}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*block", c.SizeBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	return nil
}

// line is one cache line, packed to 8 bytes so a 4-way set is half an L1
// line of the host: tv holds the block number plus one (0 = invalid), and
// the LRU stamp is 32-bit with a deterministic renormalization on overflow.
// The packing matters: the VISA L1 geometry gives 16 KB of line metadata
// per modeled cache (it was 32 KB at 16 bytes per line), and the feed loops
// walk these arrays on every modeled access, so their footprint competes
// with everything else in the host L1.
type line struct {
	tv  uint32 // block number + 1; 0 = invalid
	lru uint32 // larger = more recently used
}

// Stats counts accesses.
type Stats struct {
	Accesses int64
	Misses   int64
}

// Hits returns Accesses - Misses.
func (s Stats) Hits() int64 { return s.Accesses - s.Misses }

// MissRate returns the fraction of accesses that missed.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Delta returns the counters accumulated since the prev snapshot (s - prev).
// Take a snapshot with Stats() before an interval and apply Delta after it
// to get per-interval (e.g. per-task-instance) figures without manual
// subtraction at every call site; MissRate on the delta is the interval's
// miss rate.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{Accesses: s.Accesses - prev.Accesses, Misses: s.Misses - prev.Misses}
}

// Cache is a set-associative LRU cache. The lines of all sets live in one
// contiguous array (set s occupies lines[s*assoc : (s+1)*assoc]): a single
// allocation, and one pointer chase per access instead of two.
type Cache struct {
	cfg       Config
	lines     []line
	assoc     int
	setMask   uint32
	blockBits uint
	clock     uint32
	stats     Stats
}

// New builds a cache, rejecting invalid geometries with an error so that
// callers constructing configurations at run time (sweeps, config files)
// can report them instead of crashing.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, setMask: uint32(cfg.Sets() - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blockBits++
	}
	c.lines = make([]line, cfg.Sets()*cfg.Assoc)
	return c, nil
}

// MustNew is New panicking on error, for the compile-time-constant
// geometries (VISAL1 and test fixtures) where a bad config is a programming
// error, not an input.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Block returns the block number addr falls in (used to coalesce accesses).
func (c *Cache) Block(addr uint32) uint32 { return addr >> c.blockBits }

// Access touches addr and reports whether it hit. A miss allocates the block
// with LRU replacement (write-allocate; the timing models charge the miss
// penalty separately).
func (c *Cache) Access(addr uint32) bool {
	if c.clock == ^uint32(0) {
		c.renormalize()
	}
	c.clock++
	c.stats.Accesses++
	blk := addr >> c.blockBits
	base := int(blk&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	tv := blk + 1 // block number + 1 serves as the tag; 0 means invalid
	// Hit scan only: on the (common, branch-predictable) hit path the
	// victim bookkeeping below is dead work, and hoisting it out keeps the
	// scan to one compare per way.
	for i := range set {
		if set[i].tv == tv {
			set[i].lru = c.clock
			return true
		}
	}
	// Miss: pick the LRU victim, preferring invalid lines. Scanning after
	// the failed hit scan chooses the same victim the old fused loop did.
	// Invalid lines always carry lru 0, below any valid line's stamp (the
	// clock is pre-incremented), so the stamp comparison alone prefers
	// them; the tv check only breaks 0-0 ties toward the invalid line.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru || set[i].tv == 0 && set[victim].tv != 0 {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = line{tv: tv, lru: c.clock}
	return false
}

// renormalize handles 32-bit LRU clock wraparound: recency ORDER is all the
// replacement policy reads, so collapsing every stamp to 0 and restarting
// the clock is a deterministic approximation that loses only the ordering
// among lines last touched before the reset — once per 2^32 accesses on a
// given cache instance.
func (c *Cache) renormalize() {
	for i := range c.lines {
		c.lines[i].lru = 0
	}
	c.clock = 0
}

// Snapshot is a compact value copy of a cache: every line's tag and its
// recency rank within its set, plus the LRU clock and the counters. Ranks
// keep only what replacement reads — the order of the stamps — so two
// caches whose lines were touched in the same order at different clock
// values snapshot Equal.
type Snapshot struct {
	tags  []uint32 // line tv: block number + 1, 0 = invalid
	ranks []uint8  // 0 = stamp 0, else 1 + the set's nonzero stamps below it
	clock uint32
	stats Stats
}

// Snapshot copies c's state into s, reusing s's buffers.
func (c *Cache) Snapshot(s *Snapshot) {
	if len(s.tags) != len(c.lines) {
		s.tags = make([]uint32, len(c.lines))
		s.ranks = make([]uint8, len(c.lines))
	}
	for base := 0; base < len(c.lines); base += c.assoc {
		set := c.lines[base : base+c.assoc]
		for i, l := range set {
			s.tags[base+i] = l.tv
			r := uint8(0)
			if l.lru != 0 {
				// Nonzero stamps in a set are distinct: each comes from its
				// own clock tick, and renormalize zeroes them all.
				r = 1
				for _, o := range set {
					if o.lru != 0 && o.lru < l.lru {
						r++
					}
				}
			}
			s.ranks[base+i] = r
		}
	}
	s.clock, s.stats = c.clock, c.stats
}

// Restore puts c back in the state s was taken from (s must come from a
// cache of the same geometry): every later access hits, evicts and counts
// as it would have on the original.
func (c *Cache) Restore(s *Snapshot) { c.restore(s, s.clock, s.stats) }

// Headroom returns how many more accesses c takes before its LRU clock
// renormalizes.
func (c *Cache) Headroom() int64 { return int64(^uint32(0) - c.clock) }

// Advance puts c in the state that d's accesses, run again, would leave
// it in: end's lines and recency order, the clock d.Accesses ticks on, and
// the counters plus d. end and d must come from an earlier run of the same
// accesses that started from lines Equal to c's and did not renormalize,
// and d.Accesses must be within c's Headroom; Advance panics otherwise.
func (c *Cache) Advance(end *Snapshot, d Stats) {
	if d.Accesses < 0 || d.Accesses > c.Headroom() {
		panic(fmt.Sprintf("cache: Advance by %d accesses with headroom %d", d.Accesses, c.Headroom()))
	}
	c.restore(end, c.clock+uint32(d.Accesses), Stats{
		Accesses: c.stats.Accesses + d.Accesses,
		Misses:   c.stats.Misses + d.Misses,
	})
}

// restore sets c's lines from s with stamps at or below clock in s's rank
// order: a set's highest rank gets clock itself, rank 0 gets stamp 0.
func (c *Cache) restore(s *Snapshot, clock uint32, stats Stats) {
	for base := 0; base < len(c.lines); base += c.assoc {
		top := uint8(0)
		for _, r := range s.ranks[base : base+c.assoc] {
			top = max(top, r)
		}
		for i := base; i < base+c.assoc; i++ {
			lru := uint32(0)
			if r := s.ranks[i]; r != 0 {
				lru = clock - uint32(top-r)
			}
			c.lines[i] = line{tv: s.tags[i], lru: lru}
		}
	}
	c.clock, c.stats = clock, stats
}

// Equal reports whether s and o hold the same lines in the same recency
// order, so that any access sequence hits and evicts identically on both.
// The clock and counters are not compared.
func (s *Snapshot) Equal(o *Snapshot) bool {
	return slices.Equal(s.tags, o.tags) && bytes.Equal(s.ranks, o.ranks)
}

// Hash returns a hash of what Equal compares.
func (s *Snapshot) Hash() uint64 {
	h := uint64(len(s.tags))
	for i, t := range s.tags {
		h = (h ^ uint64(t)<<8 ^ uint64(s.ranks[i])) * hashPrime
	}
	return h
}

// hashPrime is the 64-bit FNV prime, the multiplier of Snapshot.Hash.
const hashPrime = 1099511628211

// Probe reports whether addr would hit, without updating LRU or stats.
func (c *Cache) Probe(addr uint32) bool {
	blk := addr >> c.blockBits
	base := int(blk&c.setMask) * c.assoc
	for _, l := range c.lines[base : base+c.assoc] {
		if l.tv == blk+1 {
			return true
		}
	}
	return false
}

// Flush invalidates every line (used to inject mispredictions, Figure 4).
// Statistics are preserved.
func (c *Cache) Flush() {
	clear(c.lines)
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// RegisterObs registers the cache's counters under prefix (e.g.
// "cnt.complex.dcache"). Sampling is lazy: the hot Access path is untouched.
func (c *Cache) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Counter(prefix+".accesses", func() int64 { return c.stats.Accesses })
	reg.Counter(prefix+".misses", func() int64 { return c.stats.Misses })
	reg.Counter(prefix+".hits", func() int64 { return c.stats.Hits() })
}

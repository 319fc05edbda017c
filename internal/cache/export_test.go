package cache

// SetClock moves c's LRU clock, so tests can drive it across the 2^32 wrap
// without 2^32 accesses.
func SetClock(c *Cache, v uint32) { c.clock = v }

// Clock returns c's LRU clock.
func Clock(c *Cache) uint32 { return c.clock }

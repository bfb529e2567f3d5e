// Package mem models the simulator's memory system: set-associative
// caches with LRU replacement and CLFLUSH support, a TLB, and a
// fixed-latency DRAM, composed into a two-level Hierarchy. It plays
// the role of gem5's Ruby cache system in the paper's experimental
// setup: the attacks only need hit-vs-miss timing contrast, a flush
// primitive, and the ability of speculative loads to install lines.
//
// The caches are timing-only: data values live in Memory, and cache
// state determines access latency. This matches how the attacks use
// the hierarchy (they never depend on incoherent cached data).
package mem

import (
	"fmt"
	"math/bits"
	"math/rand"

	"vpsec/internal/xrand"
)

// Policy selects a cache replacement policy.
type Policy uint8

// Replacement policies.
const (
	LRU    Policy = iota // least recently used (default)
	FIFO                 // insertion order; hits do not refresh
	Random               // uniformly random victim (needs a seed)
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return "?"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	Sets       int    // number of sets (power of two)
	Ways       int    // associativity
	LineBytes  uint64 // line size in bytes (power of two)
	HitLatency uint64 // cycles for a hit at this level
	Policy     Policy // replacement policy; zero value is LRU
	Seed       int64  // RNG seed for the Random policy
}

// Validate checks structural sanity.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: %s: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s: ways %d invalid", c.Name, c.Ways)
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	}
	return nil
}

// CacheStats counts cache events. Field names follow the metrics
// registry scope convention (mem.<level>.hits, mem.<level>.misses, …)
// so the same vocabulary appears in code, JSON dumps, and Prometheus
// exports.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Flushes    uint64
	Writebacks uint64 // dirty lines written back on eviction or flush
}

// Reset zeroes all counters (e.g. between experiment phases).
func (s *CacheStats) Reset() { *s = CacheStats{} }

// Accesses returns the total number of lookups counted.
func (s CacheStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits / (Hits + Misses), or 0 with no accesses.
func (s CacheStats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

type cacheLine struct {
	// epoch stamps the invalidation generation the line was filled in:
	// the line is valid iff epoch == Cache.epoch. Bulk invalidation is
	// then one counter bump instead of a memclr of the whole line array
	// — the simulator resets its caches between every experiment trial,
	// and that clear used to be the dominant per-trial setup cost.
	epoch uint32
	dirty bool
	tag   uint64
	lru   uint64 // last-touch tick; larger = more recent
}

// Cache is one set-associative, timing-only cache level with a
// configurable replacement policy. All sets live in one flat line
// array (set s occupies lines[s*Ways : (s+1)*Ways]), so building a
// cache is a single allocation — the simulator rebuilds hierarchies
// per experiment trial, and per-set slices used to dominate its
// allocation profile.
type Cache struct {
	cfg   CacheConfig
	lines []cacheLine
	epoch uint32 // current validity generation; never 0 (0 = always invalid)
	tick  uint64
	rng   *rand.Rand
	Stats CacheStats

	// Sets and LineBytes are validated powers of two, so the per-access
	// set/tag split is shift-and-mask instead of two hardware divides —
	// index() sits on the critical path of every simulated memory access.
	lineShift uint
	setShift  uint
	setMask   uint64
}

// NewCache builds a cache from cfg.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, lines: make([]cacheLine, cfg.Sets*cfg.Ways), epoch: 1,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:   uint64(cfg.Sets - 1),
	}
	if cfg.Policy == Random {
		c.rng = rand.New(xrand.NewSource(cfg.Seed))
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> c.setShift
}

// set returns the ways of one set as a subslice of the flat array.
func (c *Cache) set(s int) []cacheLine {
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// Lookup probes the cache. On a hit it refreshes LRU state and returns
// true; on a miss it returns false without modifying the set.
func (c *Cache) Lookup(addr uint64) bool {
	s, tag := c.index(addr)
	ways := c.set(s)
	c.tick++
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			if c.cfg.Policy == LRU {
				l.lru = c.tick // FIFO/Random hits do not refresh
			}
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains reports presence without touching LRU or statistics (for
// tests and introspection).
func (c *Cache) Contains(addr uint64) bool {
	s, tag := c.index(addr)
	ways := c.set(s)
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, evicting a victim if the set
// is full. It returns the evicted line's base address and whether an
// eviction happened.
func (c *Cache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	return c.insert(addr, false)
}

// InsertDirty fills the line and marks it modified (a store hit or a
// write-allocate): its eventual eviction counts as a writeback.
func (c *Cache) InsertDirty(addr uint64) (evicted uint64, wasEvicted bool) {
	return c.insert(addr, true)
}

func (c *Cache) insert(addr uint64, dirty bool) (evicted uint64, wasEvicted bool) {
	s, tag := c.index(addr)
	ways := c.set(s)
	c.tick++
	// Already present: refresh.
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			l.lru = c.tick
			l.dirty = l.dirty || dirty
			return 0, false
		}
	}
	victim := -1
	for i := range ways {
		if ways[i].epoch != c.epoch {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch c.cfg.Policy {
		case Random:
			victim = c.rng.Intn(c.cfg.Ways)
		default: // LRU and FIFO both evict the smallest tick: last
			// touch for LRU, insertion time for FIFO.
			for i := range ways {
				if victim < 0 || ways[i].lru < ways[victim].lru {
					victim = i
				}
			}
		}
	}
	v := &ways[victim]
	if v.epoch == c.epoch {
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
		}
		evicted = (v.tag<<c.setShift | uint64(s)) << c.lineShift
		wasEvicted = true
	}
	*v = cacheLine{epoch: c.epoch, dirty: dirty, tag: tag, lru: c.tick}
	return evicted, wasEvicted
}

// Flush evicts the line containing addr if present (clflush), and
// reports whether it was present.
func (c *Cache) Flush(addr uint64) bool {
	s, tag := c.index(addr)
	ways := c.set(s)
	for i := range ways {
		l := &ways[i]
		if l.epoch == c.epoch && l.tag == tag {
			if l.dirty {
				c.Stats.Writebacks++
			}
			l.epoch = 0 // 0 never equals the current epoch
			l.dirty = false
			c.Stats.Flushes++
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (e.g. between experiment runs) by
// advancing the validity epoch — O(1), no line-array clear. The array
// is physically cleared only when the 32-bit epoch wraps.
func (c *Cache) InvalidateAll() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.lines)
		c.epoch = 1
	}
}

// Reset restores the cache to its just-built state: all lines invalid,
// the LRU clock and statistics at zero, and (for the Random policy) the
// replacement RNG reseeded — so a recycled cache behaves bit-identically
// to a new one.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.tick = 0
	c.Stats.Reset()
	if c.cfg.Policy == Random {
		c.rng.Seed(c.cfg.Seed)
	}
}

// LineBase returns the base address of the line containing addr.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr &^ (c.cfg.LineBytes - 1)
}

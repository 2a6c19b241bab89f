// Package cache implements the timing model of a multi-level set-associative
// cache hierarchy with LRU replacement, write-back/write-allocate policy,
// CLFLUSH support, and a fixed-latency DRAM backend. The hierarchy tracks
// tag state only; data lives in the simulator's physical memory.
//
// The state is functional in the architectural sense but *micro*architecturally
// observable: speculative accesses that later squash still install lines,
// which is exactly the side channel the flush+reload experiment (Fig. 13)
// measures.
package cache

import (
	"fmt"
	"strings"

	"specmpk/internal/recycle"
	"specmpk/internal/stats"
)

// Stats accumulates per-cache access counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Flushes    uint64
	Prefetches uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the fraction of accesses that missed (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	pfTag bool   // installed by the prefetcher, not yet demand-hit
	lru   uint64 // larger = more recently used
}

// Cache is one level of the hierarchy.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	latency  int // roundtrip cycles charged on a hit at this level
	lines    []line
	tick     uint64
	next     Level // next level, or nil if backed by memory
	prefetch bool
	Stats    Stats
}

// Level is anything that can service a miss: another Cache or Memory.
type Level interface {
	// access services a physical-address access and returns the total
	// latency incurred at this level and below (excluding the requester's
	// own hit latency).
	access(paddr uint64, write bool) int
	// flushLine removes the line containing paddr at this level and below.
	flushLine(paddr uint64)
	// invalidateAll empties this level and below.
	invalidateAll()
}

// Memory is the fixed-latency DRAM backend terminating the hierarchy.
type Memory struct {
	Latency  int
	Accesses uint64
}

func (m *Memory) access(uint64, bool) int { m.Accesses++; return m.Latency }
func (m *Memory) flushLine(uint64)        {}
func (m *Memory) invalidateAll()          {}

// Config describes one cache level.
type Config struct {
	Name    string
	SizeB   int // total capacity in bytes
	Ways    int
	LineB   int // line size in bytes (power of two)
	Latency int // roundtrip hit latency in cycles
	// NextLinePrefetch installs line N+1 alongside every demand miss of
	// line N (off the critical path, so no latency is charged). An
	// extension over the paper's Table III machine; off by default and
	// exercised by the prefetch ablation bench.
	NextLinePrefetch bool
}

// linePool recycles the tag arrays of released levels (Cache.Release).
var linePool recycle.Pool[line]

// New builds a cache level in front of next. The line size and the set
// count must be positive powers of two.
func New(cfg Config, next Level) (*Cache, error) {
	if cfg.LineB <= 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: %d ways", cfg.Name, cfg.Ways)
	}
	sets := cfg.SizeB / cfg.LineB / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	lb := uint(0)
	for 1<<lb != cfg.LineB {
		lb++
	}
	return &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: lb,
		latency:  cfg.Latency,
		lines:    linePool.Get(sets * cfg.Ways),
		next:     next,
		prefetch: cfg.NextLinePrefetch,
	}, nil
}

// Release hands the level's tag array back for a later New to reuse. The
// level is unusable afterwards: an access or probe panics. Its Stats stay
// readable.
func (c *Cache) Release() {
	linePool.Put(c.lines)
	c.lines = nil
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

func (c *Cache) set(paddr uint64) (int, uint64) {
	blk := paddr >> c.lineBits
	return int(blk) & (c.sets - 1), blk
}

// Access performs a timed access, installing the line on a miss. The return
// value is the total latency in cycles including this level's hit latency.
func (c *Cache) Access(paddr uint64, write bool) int {
	return c.access(paddr, write)
}

func (c *Cache) access(paddr uint64, write bool) int {
	c.tick++
	set, tag := c.set(paddr)
	if l := c.find(set, tag); l != nil {
		c.Stats.Hits++
		l.lru = c.tick
		if write {
			l.dirty = true
		}
		if l.pfTag {
			// Tagged prefetching: the first demand hit on a
			// prefetched line keeps the stream running.
			l.pfTag = false
			c.prefetchLine((tag + 1) << c.lineBits)
		}
		return c.latency
	}
	// Miss: fetch from below, then install.
	c.Stats.Misses++
	lat := c.latency + c.next.access(paddr, false)
	c.install(set, line{tag: tag, valid: true, dirty: write, lru: c.tick})
	if c.prefetch {
		c.prefetchLine((tag + 1) << c.lineBits)
	}
	return lat
}

// prefetchLine installs a line without charging latency or polluting the
// demand hit/miss statistics.
func (c *Cache) prefetchLine(paddr uint64) {
	set, tag := c.set(paddr)
	if c.find(set, tag) != nil {
		return // already resident
	}
	c.Stats.Prefetches++
	c.next.access(paddr, false)
	// Install with the lowest recency so useless prefetches evict first.
	c.install(set, line{tag: tag, valid: true, pfTag: true})
}

// find returns the valid line holding tag in the set, or nil.
func (c *Cache) find(set int, tag uint64) *line {
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	for w := range ways {
		if l := &ways[w]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// install puts l into the set in place of its victim: the first invalid
// way from way 1 up, else the way with the lowest recency, way 0 included.
// A valid victim counts as an eviction, and a dirty one is written back to
// the next level — charged to its counters, not to the access's latency (a
// write buffer takes it off the critical path).
func (c *Cache) install(set int, l line) {
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	v := &ways[0]
	for w := 1; w < len(ways); w++ {
		if !ways[w].valid {
			v = &ways[w]
			break
		}
		if ways[w].lru < v.lru {
			v = &ways[w]
		}
	}
	if v.valid {
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.Writebacks++
			c.next.access(victimAddr(v.tag, c.lineBits), true)
		}
	}
	*v = l
}

func victimAddr(tag uint64, lineBits uint) uint64 { return tag << lineBits }

// Probe reports whether the line containing paddr is present at this level,
// without perturbing LRU or stats. The attack harness uses the simulator's
// timed loads instead; Probe exists for tests.
func (c *Cache) Probe(paddr uint64) bool {
	return c.find(c.set(paddr)) != nil
}

// FlushLine implements CLFLUSH: evict (without write-back timing) the line
// containing paddr from this level and everything below.
func (c *Cache) FlushLine(paddr uint64) { c.flushLine(paddr) }

// A flushed way is cleared whole, recency included: install reads an empty
// way 0 as the lowest recency, so a kept stamp would let a valid line lose
// to it.
func (c *Cache) flushLine(paddr uint64) {
	if l := c.find(c.set(paddr)); l != nil {
		*l = line{}
		c.Stats.Flushes++
	}
	c.next.flushLine(paddr)
}

// InvalidateAll empties this level and everything below.
func (c *Cache) InvalidateAll() { c.invalidateAll() }

func (c *Cache) invalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.next.invalidateAll()
}

// Hierarchy wires up the Table III memory system: split L1I/L1D over a
// shared L2, L3, and DRAM.
type Hierarchy struct {
	L1I, L1D *Cache
	L2, L3   *Cache
	Mem      *Memory
}

// HierarchyConfig parameterises NewHierarchy. Zero fields take the paper's
// Table III defaults via DefaultHierarchyConfig.
type HierarchyConfig struct {
	LineB      int
	L1I, L1D   Config
	L2, L3     Config
	MemLatency int
}

// DefaultHierarchyConfig returns the Table III memory configuration:
// 32 KB 8-way L1I (5 cycles), 48 KB 12-way L1D (5 cycles), 512 KB 8-way L2
// (15 cycles), 2 MB 16-way L3 (40 cycles), DDR4-like DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		LineB:      64,
		L1I:        Config{Name: "L1I", SizeB: 32 << 10, Ways: 8, Latency: 5},
		L1D:        Config{Name: "L1D", SizeB: 48 << 10, Ways: 12, Latency: 5},
		L2:         Config{Name: "L2", SizeB: 512 << 10, Ways: 8, Latency: 15},
		L3:         Config{Name: "L3", SizeB: 2 << 20, Ways: 16, Latency: 40},
		MemLatency: 110,
	}
}

// NewHierarchy builds the four-level hierarchy, or reports the first level
// whose geometry New rejects.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.LineB == 0 {
		cfg = DefaultHierarchyConfig()
	}
	h := &Hierarchy{Mem: &Memory{Latency: cfg.MemLatency}}
	level := func(c Config, next Level) (*Cache, error) {
		if c.LineB == 0 {
			c.LineB = cfg.LineB
		}
		return New(c, next)
	}
	var err error
	if h.L3, err = level(cfg.L3, h.Mem); err != nil {
		return nil, err
	}
	if h.L2, err = level(cfg.L2, h.L3); err != nil {
		return nil, err
	}
	if h.L1I, err = level(cfg.L1I, h.L2); err != nil {
		return nil, err
	}
	if h.L1D, err = level(cfg.L1D, h.L2); err != nil {
		return nil, err
	}
	return h, nil
}

// Release releases every level's tag array (Cache.Release).
func (h *Hierarchy) Release() {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		c.Release()
	}
}

// WriteMetrics writes one level's counters under prefix ("cache.l2").
func (c *Cache) WriteMetrics(w *stats.Writer, prefix string) {
	w.Counter(prefix+".hits", "demand hits", c.Stats.Hits)
	w.Counter(prefix+".misses", "demand misses", c.Stats.Misses)
	w.Counter(prefix+".evictions", "lines evicted", c.Stats.Evictions)
	w.Counter(prefix+".writebacks", "dirty victims written back", c.Stats.Writebacks)
	w.Counter(prefix+".flushes", "lines removed by CLFLUSH", c.Stats.Flushes)
	w.Counter(prefix+".prefetches", "lines installed by the prefetcher", c.Stats.Prefetches)
	w.Ratio(prefix+".miss_rate", "misses per demand access", 1, prefix+".misses", prefix+".hits", prefix+".misses")
}

// WriteMetrics writes every level of the hierarchy plus the DRAM backend
// under prefix ("cache"), using the levels' configured names lowercased
// ("cache.l1d.misses", "cache.dram.accesses").
func (h *Hierarchy) WriteMetrics(w *stats.Writer, prefix string) {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		c.WriteMetrics(w, prefix+"."+strings.ToLower(c.name))
	}
	w.Counter(prefix+".dram.accesses", "DRAM accesses", h.Mem.Accesses)
}

// LoadLatency times a data load at paddr.
func (h *Hierarchy) LoadLatency(paddr uint64) int { return h.L1D.Access(paddr, false) }

// StoreLatency times a data store at paddr.
func (h *Hierarchy) StoreLatency(paddr uint64) int { return h.L1D.Access(paddr, true) }

// FetchLatency times an instruction fetch at paddr.
func (h *Hierarchy) FetchLatency(paddr uint64) int { return h.L1I.Access(paddr, false) }

// Flush removes the line containing paddr from every level (CLFLUSH).
// Flushing through L1D also clears L2/L3; L1I is flushed separately since it
// sits on a parallel path.
func (h *Hierarchy) Flush(paddr uint64) {
	h.L1D.FlushLine(paddr)
	h.L1I.FlushLine(paddr)
}

// InvalidateAll empties the whole hierarchy.
func (h *Hierarchy) InvalidateAll() {
	h.L1D.InvalidateAll()
	h.L1I.InvalidateAll()
}

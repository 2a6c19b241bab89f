// Package tlb models set-associative translation lookaside buffers that
// cache the page-table entry — crucially including the page's protection
// key, which the MPK permission check reads on every memory access
// (paper §II-A1, "Protection Check").
//
// The TLB is a microarchitectural side channel of its own (Gras et al.,
// TLBleed), which is why SpecMPK defers TLB fills for loads that fail the
// PKRU Load Check (paper §V-C5). The pipeline enforces that policy; this
// package provides Lookup (non-allocating) and Fill (allocating) as separate
// steps so the deferral is expressible.
package tlb

import (
	"fmt"

	"specmpk/internal/mem"
	"specmpk/internal/recycle"
	"specmpk/internal/stats"
)

// Entry is one cached translation.
type Entry struct {
	VPN   uint64
	PTE   mem.PTE
	valid bool
	lru   uint64
}

// Stats counts TLB events.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Fills   uint64
	Flushes uint64
}

// MissRate returns misses/(hits+misses), 0 when idle.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Config sizes a TLB.
type Config struct {
	Entries int
	Ways    int
	// WalkLatency is the page-walk cost in cycles charged on a miss
	// (on top of any cache access the walker performs; we model the walk
	// as a flat cost).
	WalkLatency int
}

// DefaultDataConfig is a 1024-entry 8-way data TLB with a 30-cycle walk —
// a single-level stand-in for a modern L1 DTLB + shared STLB (Cascade Lake
// carries 64 + 1536 entries), matching the effective TLB reach the paper's
// evaluation implicitly assumes.
func DefaultDataConfig() Config { return Config{Entries: 1024, Ways: 8, WalkLatency: 30} }

// DefaultInstConfig is the instruction-side equivalent.
func DefaultInstConfig() Config { return Config{Entries: 1024, Ways: 8, WalkLatency: 30} }

// TLB is a set-associative translation cache.
type TLB struct {
	sets    int
	ways    int
	walkLat int
	entries []Entry
	tick    uint64
	Stats   Stats
}

// entryPool recycles the entry arrays of released TLBs (TLB.Release).
var entryPool recycle.Pool[Entry]

// New builds a TLB from cfg. The set count must be a positive power of two.
func New(cfg Config) (*TLB, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("tlb: %d ways", cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb: set count %d not a positive power of two", sets)
	}
	return &TLB{
		sets:    sets,
		ways:    cfg.Ways,
		walkLat: cfg.WalkLatency,
		entries: entryPool.Get(cfg.Entries),
	}, nil
}

// Release hands the TLB's entry array back for a later New to reuse. The TLB
// is unusable afterwards: a lookup, probe or fill panics. Its Stats stay
// readable; Occupancy reads 0.
func (t *TLB) Release() {
	entryPool.Put(t.entries)
	t.entries = nil
}

// WalkLatency returns the configured page-walk cost.
func (t *TLB) WalkLatency() int { return t.walkLat }

func (t *TLB) set(vpn uint64) int { return int(vpn) & (t.sets - 1) }

// Lookup searches for vpn without allocating. On a hit it refreshes LRU and
// returns the cached PTE.
func (t *TLB) Lookup(vpn uint64) (mem.PTE, bool) {
	t.tick++
	base := t.set(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.VPN == vpn {
			t.Stats.Hits++
			e.lru = t.tick
			return e.PTE, true
		}
	}
	t.Stats.Misses++
	return mem.PTE{}, false
}

// Probe reports residency without touching LRU or stats (test helper and
// side-channel measurement aid).
func (t *TLB) Probe(vpn uint64) bool {
	base := t.set(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		e := t.entries[base+w]
		if e.valid && e.VPN == vpn {
			return true
		}
	}
	return false
}

// Fill installs a translation, evicting the set's LRU entry if needed.
// SpecMPK calls this only once the access is known non-transient.
func (t *TLB) Fill(vpn uint64, pte mem.PTE) {
	t.tick++
	t.Stats.Fills++
	base := t.set(vpn) * t.ways
	victim := base
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.VPN == vpn { // refresh in place
			e.PTE = pte
			e.lru = t.tick
			return
		}
		if !e.valid {
			victim = base + w
		} else if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = base + w
		}
	}
	t.entries[victim] = Entry{VPN: vpn, PTE: pte, valid: true, lru: t.tick}
}

// InvalidatePage removes the translation for vpn if present.
func (t *TLB) InvalidatePage(vpn uint64) {
	base := t.set(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.VPN == vpn {
			e.valid = false
		}
	}
}

// FlushAll empties the TLB. This is the cost mprotect-based isolation pays
// on every domain switch (TLB shootdown); MPK never calls it.
func (t *TLB) FlushAll() {
	t.Stats.Flushes++
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
}

// WriteMetrics writes the TLB's counters under prefix ("tlb.dtlb").
func (t *TLB) WriteMetrics(w *stats.Writer, prefix string) {
	w.Counter(prefix+".hits", "translation hits", t.Stats.Hits)
	w.Counter(prefix+".misses", "translation misses", t.Stats.Misses)
	w.Counter(prefix+".fills", "translations installed", t.Stats.Fills)
	w.Counter(prefix+".flushes", "full invalidations", t.Stats.Flushes)
	w.Ratio(prefix+".miss_rate", "misses per lookup", 1, prefix+".misses", prefix+".hits", prefix+".misses")
	w.Gauge(prefix+".occupancy", "valid entries", float64(t.Occupancy()))
}

// Occupancy returns the number of valid entries (test/diagnostic helper).
func (t *TLB) Occupancy() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// store is the server's one content-addressed store: "compute once per key,
// then serve from memory". It backs both the result store (canonical result
// bytes keyed by api.JobSpec.Key, produced by an *execution) and the profile
// store (simpoint plans keyed by api.JobSpec.ProfileKey, produced by a
// *profileBuild). A key is always in exactly one of three states:
//
//   - absent: nothing is known about it;
//   - pending: one producer P owns it and is computing its value; every
//     other lookup joins that producer (single-flight);
//   - resident: its finished value V sits in an LRU bounded by entry count.
//
// lookup moves absent -> pending; settle moves pending -> resident, or back
// to absent for an outcome that must not be kept, under one lock, so no
// lookup ever sees a key between the two. Because a key folds in the
// simulator version and every default, a resident value is bit-identical to
// what recomputing it would produce and can be served verbatim.
type store[V any, P comparable] struct {
	mu      sync.Mutex
	max     int                      // resident bound; <= 0 retains nothing (single-flight still applies)
	entries map[string]*list.Element // resident keys; element values are *entry[V]
	lru     *list.List               // front = most recently used
	pending map[string]P

	// hits counts lookups answered by a resident value and misses every
	// other lookup, joins included. peeks/peekHits count peek apart, so
	// the lookup statistics stay meaningful under cluster probes.
	hits, misses, evictions, peeks, peekHits atomic.Uint64
}

type entry[V any] struct {
	key string
	val V
}

// lookupState is what lookup found for a key.
type lookupState int

const (
	resident  lookupState = iota // the value is stored: serve it
	joined                       // another producer owns the key: wait on it
	installed                    // the caller's new producer owns the key: produce, then settle
)

func newStore[V any, P comparable](max int) *store[V, P] {
	return &store[V, P]{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		pending: make(map[string]P),
	}
}

// lookup returns key's resident value, the pending producer to join, or —
// for an absent key — a new producer from mk, installed as the key's owner.
// The owner must settle the key once it has an outcome. miss forces the
// non-resident path (an injected cache fault): a resident value is dropped
// and the key handled as absent.
func (c *store[V, P]) lookup(key string, miss bool, mk func() P) (v V, p P, st lookupState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if !miss {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return el.Value.(*entry[V]).val, p, resident
		}
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	c.misses.Add(1)
	if p, ok := c.pending[key]; ok {
		return v, p, joined
	}
	p = mk()
	c.pending[key] = p
	return v, p, installed
}

// settle ends p's ownership of key: the key leaves pending and, when keep is
// set and the store retains anything, becomes resident with v, evicting the
// least recently used entries beyond the bound. It reports whether p still
// owned the key; a second settle, or one by a stale producer, is a no-op.
func (c *store[V, P]) settle(key string, p P, v V, keep bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.pending[key]; !ok || cur != p {
		return false
	}
	delete(c.pending, key)
	if !keep || c.max <= 0 {
		return true
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: v})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
	return true
}

// peek returns key's resident value without a lookup: it installs nothing,
// fires no fault point and leaves the hit/miss counters alone. A hit still
// refreshes recency — a value peers keep asking for is worth keeping.
func (c *store[V, P]) peek(key string) (V, bool) {
	c.peeks.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	c.peekHits.Add(1)
	return el.Value.(*entry[V]).val, true
}

// len returns the resident entry count.
func (c *store[V, P]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

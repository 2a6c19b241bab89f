//go:build go1.24

// Package recycle hands large fixed-size slices from an owner that is done
// with them to the next owner that needs one of the same length. Every job
// builds a machine and drops it when its result is built: a sampled
// interval 20k instructions later, a capped full job after 20k cycles.
// Recycling the machine's cache, TLB, predictor and in-flight arrays makes
// the next machine cost a clear rather than a fresh megabyte of heap.
//
// A pool holds what it is given only through weak pointers, so it never
// keeps memory alive across a garbage collection: a released slice is
// reused until the next collection and reclaimed by it. A program that
// releases machines therefore has the live heap of one that does not.
//
// The weak package is Go 1.24's. go.mod's go line stays at 1.22, the
// benchmark module's, so the build line states the requirement.
package recycle

import (
	"sync"
	"weak"
)

// Pool recycles []T slices by length. The zero value is ready to use and
// safe for concurrent use. A Get never depends on an earlier Put: the
// collector may reclaim anything the pool holds.
type Pool[T any] struct {
	mu sync.Mutex
	// free holds, per length, weak pointers to the headers of released
	// slices, newest last.
	free map[int][]weak.Pointer[[]T]
}

// Get returns a zeroed slice of length n: a recycled one when one of that
// length is still uncollected, otherwise a fresh one.
func (p *Pool[T]) Get(n int) []T {
	p.mu.Lock()
	var s *[]T
	if l := p.free[n]; len(l) > 0 {
		if s = l[len(l)-1].Value(); s != nil {
			p.free[n] = l[:len(l)-1]
		} else {
			// Everything older was put back before the newest, so a
			// collection that reclaimed the newest reclaimed them too.
			delete(p.free, n)
		}
	}
	p.mu.Unlock()
	if s == nil {
		return make([]T, n)
	}
	clear(*s)
	return *s
}

// Put hands s back for a later Get of the same length. The caller must not
// touch s afterwards. Empty slices are ignored.
func (p *Pool[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	w := weak.Make(&s)
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[int][]weak.Pointer[[]T])
	}
	p.free[len(s)] = append(p.free[len(s)], w)
	p.mu.Unlock()
}

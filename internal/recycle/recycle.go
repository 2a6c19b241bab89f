// Package recycle hands large fixed-size slices from an owner that is done
// with them to the next owner that needs one of the same length. The
// sampled path builds a machine per interval and drops it 20k instructions
// later; recycling its cache, TLB, BTB and in-flight arrays makes the next
// interval's machine cost a clear rather than a fresh megabyte of heap.
package recycle

import "sync"

// Pool recycles []T slices by length. The zero value is ready to use and
// safe for concurrent use. It is backed by sync.Pool, so the runtime may
// drop what it holds at any garbage collection: a Get never depends on an
// earlier Put.
type Pool[T any] struct {
	byLen sync.Map // int -> *sync.Pool of *[]T
}

// Get returns a zeroed slice of length n: a recycled one when one of that
// length is available, otherwise a fresh one.
func (p *Pool[T]) Get(n int) []T {
	if sp, ok := p.byLen.Load(n); ok {
		if s, ok := sp.(*sync.Pool).Get().(*[]T); ok {
			clear(*s)
			return *s
		}
	}
	return make([]T, n)
}

// Put hands s back for a later Get of the same length. The caller must not
// touch s afterwards. Empty slices are ignored.
func (p *Pool[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	sp, ok := p.byLen.Load(len(s))
	if !ok {
		sp, _ = p.byLen.LoadOrStore(len(s), new(sync.Pool))
	}
	sp.(*sync.Pool).Put(&s)
}

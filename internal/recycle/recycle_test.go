package recycle

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestGetIsZeroed: whatever was put back, Get hands out a zeroed slice of
// exactly the length asked for, recycled or new.
func TestGetIsZeroed(t *testing.T) {
	var p Pool[uint64]
	for round := 0; round < 4; round++ {
		for _, n := range []int{1, 7, 4096} {
			s := p.Get(n)
			if len(s) != n {
				t.Fatalf("Get(%d) has length %d", n, len(s))
			}
			for i, v := range s {
				if v != 0 {
					t.Fatalf("round %d: Get(%d)[%d] = %d, want 0", round, n, i, v)
				}
			}
			for i := range s {
				s[i] = ^uint64(i)
			}
			p.Put(s)
		}
	}
	p.Put(nil) // ignored
	if s := p.Get(0); len(s) != 0 {
		t.Fatalf("Get(0) has length %d", len(s))
	}
}

// TestConcurrentGetPut: goroutines trading slices of two lengths through one
// pool each get their own zeroed slice; run under -race it also checks the
// handoff is synchronized.
func TestConcurrentGetPut(t *testing.T) {
	var p Pool[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 64 + 64*(i%2)
				s := p.Get(n)
				for j, v := range s {
					if v != 0 || len(s) != n {
						t.Errorf("goroutine %d: Get(%d) has length %d, [%d] = %d", g, n, len(s), j, v)
						return
					}
					s[j] = g + 1
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestHeldOnlyUntilCollected: with the collector off, a slice put back is
// what the next Get of its length returns, with no fresh allocation; after
// a collection it is gone, and the heap falls by its size.
func TestHeldOnlyUntilCollected(t *testing.T) {
	const n = 8 << 20
	var p Pool[byte]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	allocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	p.Put(make([]byte, n))
	before := allocs()
	p.Put(p.Get(n))
	if got := allocs() - before; got >= n/2 {
		t.Fatalf("a Get with the collector off allocated %d bytes, want the slice put back", got)
	}
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > held-n {
		t.Fatalf("a collection took the heap from %d to %d bytes, want a fall of at least %d", held, ms.HeapAlloc, n)
	}
	before = allocs()
	p.Get(n)
	if got := allocs() - before; got < n {
		t.Fatalf("a Get after a collection allocated %d bytes, want a fresh slice of %d", got, n)
	}
}

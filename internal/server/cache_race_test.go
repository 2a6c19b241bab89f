package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// Run these under -race (make chaos): they exist to widen the window on the
// cache's lock discipline and the submit path's single-flight dedup.

// TestCacheHammerPutGetEvict pounds put/get from many goroutines against a
// cache far smaller than the key space, forcing constant LRU eviction. Any
// bytes a get returns must be exactly what was put under that key, and the
// entry count must respect the bound throughout.
func TestCacheHammerPutGetEvict(t *testing.T) {
	const (
		maxEntries = 8
		keySpace   = 64
		workers    = 16
		opsEach    = 2000
	)
	c := newStore[[]byte, *int](maxEntries)
	payload := func(k int) string { return fmt.Sprintf("result-for-key-%03d", k) }
	// put and get are a plain cache's two operations on the store: put fills
	// the key unless another producer owns it; get is a counted lookup whose
	// miss abandons the producer it installed.
	newProducer := func() *int { return new(int) }
	put := func(key string, b []byte) {
		if _, p, st := c.lookup(key, false, newProducer); st == installed {
			c.settle(key, p, b, true)
		}
	}
	get := func(key string) ([]byte, bool) {
		b, p, st := c.lookup(key, false, newProducer)
		if st == installed {
			c.settle(key, p, nil, false)
		}
		return b, st == resident
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := (w*31 + i*17) % keySpace
				key := fmt.Sprintf("key-%03d", k)
				if i%3 == 0 {
					put(key, []byte(payload(k)))
				} else if b, ok := get(key); ok && string(b) != payload(k) {
					errs <- fmt.Errorf("key %s returned %q, want %q", key, b, payload(k))
					return
				}
				if n := c.len(); n > maxEntries {
					errs <- fmt.Errorf("cache grew to %d entries, bound is %d", n, maxEntries)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.len(); n > maxEntries {
		t.Fatalf("final cache size %d exceeds bound %d", n, maxEntries)
	}
}

// TestCacheDedupUnderPressure drives many concurrent submitters over a few
// distinct specs through a server whose cache is smaller than the spec set,
// so in-flight dedup, cache hits, and evictions all race. Every submission
// must land on a done job with the same canonical bytes per spec.
func TestCacheDedupUnderPressure(t *testing.T) {
	const (
		distinctSpecs = 6
		submitters    = 36
	)
	s := newTestServer(t, Options{Workers: 4, QueueSize: 256, CacheEntries: 2, EventInterval: 1000})

	var mu sync.Mutex
	canonical := make(map[int]string) // spec index -> result bytes
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			defer wg.Done()
			si := i % distinctSpecs
			info, err := s.Submit(uniqueSpec(si, 5_000))
			if err != nil {
				errs[i] = fmt.Errorf("submit %d: %v", i, err)
				return
			}
			final := waitJob(t, s, info.ID)
			if final.State != api.StateDone {
				errs[i] = fmt.Errorf("job %s: state %s (%s)", info.ID, final.State, final.Error)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := canonical[si]; !ok {
				canonical[si] = string(final.Result)
			} else if prev != string(final.Result) {
				errs[i] = fmt.Errorf("spec %d: divergent results under dedup/eviction pressure", si)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.len(); n > 2 {
		t.Fatalf("cache size %d exceeds configured bound 2", n)
	}
}

// TestCancelledJobNeverPoisonsCache cancels a running job and requires that
// nothing it produced (it produced nothing) reaches the cache: a later
// lookup of the same spec must miss.
func TestCancelledJobNeverPoisonsCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000})
	spec := spinSpec(1 << 40)
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := s.Job(info.ID)
		if cur.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := s.Cancel(info.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}

	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.peek(key); ok {
		t.Fatal("cancelled job's key answers from the cache")
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after a lone cancelled job", n)
	}
}

// TestCacheResubmitAfterCancelStartsFresh: a client that resubmits a spec
// the moment its cancelled job's event stream closes must get a fresh
// execution. Joining the cancelled one would hand back "cancelled" for a
// job nobody cancelled. Every terminal path settles the key in the result
// store before finish publishes the terminal event, which closes that
// window. Each round starts its lanes together, each cancelling and
// resubmitting its own spec: they contend for the server mutex, which is
// what lets a resubmission overtake the cancelling goroutine's bookkeeping
// when that ordering is broken.
func TestCacheResubmitAfterCancelStartsFresh(t *testing.T) {
	const rounds, lanes = 250, 16
	// The blocker occupies the lone worker, so every execution below is
	// cancelled while queued; the queue holds two per iteration.
	s := newTestServer(t, Options{Workers: 1, QueueSize: 2*rounds*lanes + 8, EventInterval: 10_000})
	blocker, err := s.Submit(uniqueSpec(1000, 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker.ID)
	type submitted struct {
		info api.JobInfo
		err  error
	}
	iteration := func(spec api.JobSpec) error {
		first, err := s.Submit(spec)
		if err != nil {
			return err
		}
		ch, unsubscribe, ok := s.Subscribe(first.ID)
		if !ok {
			return fmt.Errorf("unknown job %s", first.ID)
		}
		defer unsubscribe()
		again := make(chan submitted, 1)
		go func() {
			for range ch {
			}
			info, err := s.Submit(spec)
			again <- submitted{info, err}
		}()
		s.Cancel(first.ID)
		r := <-again
		if r.err != nil {
			return fmt.Errorf("resubmit: %v", r.err)
		}
		s.Cancel(r.info.ID)
		if r.info.Deduped || r.info.State == api.StateCancelled {
			return fmt.Errorf("resubmission inherited the cancelled execution (deduped=%v state=%s)",
				r.info.Deduped, r.info.State)
		}
		return nil
	}
	for round := 0; round < rounds; round++ {
		errs := make([]error, lanes)
		var wg sync.WaitGroup
		wg.Add(lanes)
		for l := 0; l < lanes; l++ {
			go func(l int) {
				defer wg.Done()
				errs[l] = iteration(uniqueSpec(l, 1<<40))
			}(l)
		}
		wg.Wait()
		for l, err := range errs {
			if err != nil {
				t.Fatalf("round %d lane %d: %v", round, l, err)
			}
		}
	}
}

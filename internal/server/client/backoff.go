package client

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy shapes the client's resilience layer: how many times a
// logical call is attempted and how the delays between attempts grow. The
// zero value means the defaults — callers only set fields they care about.
//
// Retries are safe across the whole API because every operation is
// idempotent by construction: Submit is content-addressed (resubmitting a
// spec attaches to the cache, an in-flight execution, or starts the same
// deterministic run), Job/Events are reads, and Cancel of a terminal job is
// a no-op.
type RetryPolicy struct {
	// MaxAttempts bounds tries per call, first attempt included (0 = 6).
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = 5s).
	MaxDelay time.Duration
	// Jitter supplies the randomness spreading delays inside their window;
	// each call returns a value in [0, 1). nil = a deterministic default:
	// a fixed base seed decorrelated per backoff instance, so concurrent
	// clients in one process still spread out but a test run's delay
	// sequence is reproducible. Calls are serialized by the backoff's lock.
	Jitter func() float64
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 6
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 100 * time.Millisecond
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 5 * time.Second
}

// backoff produces capped exponential delays with jitter: the nth delay is
// base·2ⁿ capped at max, then jittered to [d/2, d) so a herd of clients
// re-polling one daemon spreads out instead of thundering in lockstep.
type backoff struct {
	policy RetryPolicy

	mu      sync.Mutex
	jitter  func() float64 // nil until the first default-jitter draw
	seq     uint64         // instance number the default stream is seeded from
	attempt int
}

// backoffSeq numbers backoff instances process-wide; the default jitter
// stream is seeded from it, never from the clock.
var backoffSeq atomic.Uint64

// defaultJitter is the deterministic jitter stream for the nth backoff
// instance in this process: a fixed base seed decorrelated by n (golden-ratio
// multiplier), so instance n's delay sequence is identical run to run while
// concurrent instances still desynchronize from each other.
func defaultJitter(n uint64) func() float64 {
	return rand.New(rand.NewSource(int64(n * 0x9E3779B97F4A7C15))).Float64
}

// newBackoff numbers the instance now but seeds its default stream only on
// the first delay: most calls never retry, and a math/rand source is a
// 4.9 KB allocation.
func newBackoff(p RetryPolicy) *backoff {
	b := &backoff{policy: p, jitter: p.Jitter}
	if b.jitter == nil {
		b.seq = backoffSeq.Add(1)
	}
	return b
}

// next returns the coming delay and advances the attempt counter.
func (b *backoff) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.policy.base()
	for i := 0; i < b.attempt && d < b.policy.max(); i++ {
		d *= 2
	}
	if d > b.policy.max() {
		d = b.policy.max()
	}
	b.attempt++
	if b.jitter == nil {
		b.jitter = defaultJitter(b.seq)
	}
	// Jitter to [d/2, d].
	return d/2 + time.Duration(b.jitter()*float64(d/2+1))
}

// reset restarts the schedule — call after forward progress so one slow
// stretch does not inflate every later delay.
func (b *backoff) reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// sleep blocks for the next delay (or explicit, when > 0 — a server's
// Retry-After overrides the schedule) or until ctx is cancelled.
func (b *backoff) sleep(ctx context.Context, explicit time.Duration) error {
	d := explicit
	if d <= 0 {
		d = b.next()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

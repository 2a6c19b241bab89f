package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// haltAsm is the smallest halting program.
const haltAsm = "main:\n movi t0, 2\n halt\n"

// fastRetry keeps test retries in the millisecond range.
var fastRetry = RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}

// TestBackoffGrowsCapsAndJitters checks the delay schedule: exponential
// from BaseDelay, capped at MaxDelay, every value jittered into [d/2, d].
func TestBackoffGrowsCapsAndJitters(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	b := newBackoff(p)
	raw := []time.Duration{10, 20, 40, 80, 80, 80} // ms, pre-jitter
	for i, d := range raw {
		d *= time.Millisecond
		got := b.next()
		if got < d/2 || got > d {
			t.Fatalf("delay %d: %v outside jitter window [%v, %v]", i, got, d/2, d)
		}
	}
	b.reset()
	if got := b.next(); got < 5*time.Millisecond || got > 10*time.Millisecond {
		t.Fatalf("post-reset delay %v, want back in [5ms, 10ms]", got)
	}
}

// TestBackoffJitterIsInjectable pins the injection seam: a caller-supplied
// Jitter fully determines where in the [d/2, d] window each delay lands.
func TestBackoffJitterIsInjectable(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}

	p.Jitter = func() float64 { return 0 } // bottom of the window: exactly d/2
	low := newBackoff(p)
	for i, d := range []time.Duration{10, 20, 40, 80, 80} {
		d *= time.Millisecond
		if got := low.next(); got != d/2 {
			t.Fatalf("delay %d with zero jitter: %v, want exactly %v", i, got, d/2)
		}
	}

	// Two backoffs sharing one injected stream replay the same schedule —
	// the reproducible-retry-test property the seam exists for.
	mk := func() *backoff {
		q := p
		q.Jitter = defaultJitter(42)
		return newBackoff(q)
	}
	a, b := mk(), mk()
	for i := 0; i < 10; i++ {
		if da, db := a.next(), b.next(); da != db {
			t.Fatalf("draw %d: %v != %v despite identical jitter streams", i, da, db)
		}
	}
}

// TestBackoffDefaultJitterIsDeterministic: the default stream is seeded from
// the instance number, never the clock — same n, same sequence; different n,
// decorrelated sequences.
func TestBackoffDefaultJitterIsDeterministic(t *testing.T) {
	j1, j2, j3 := defaultJitter(7), defaultJitter(7), defaultJitter(8)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		a, b, c := j1(), j2(), j3()
		if a < 0 || a >= 1 {
			t.Fatalf("draw %d: %v outside [0, 1)", i, a)
		}
		if a != b {
			same = false
		}
		if a != c {
			diff = true
		}
	}
	if !same {
		t.Fatal("defaultJitter(7) streams diverged")
	}
	if !diff {
		t.Fatal("defaultJitter(7) and defaultJitter(8) produced identical streams")
	}
}

// TestBackoffDefaultJitterIsLazy: a default-jitter backoff builds its
// stream only on the first delay, from the instance number drawn at
// construction, so its delays are exactly those of a backoff handed
// defaultJitter of that number up front.
func TestBackoffDefaultJitterIsLazy(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	lazy := newBackoff(p)
	if lazy.jitter != nil {
		t.Fatal("newBackoff built its jitter stream before the first delay")
	}
	q := p
	q.Jitter = defaultJitter(lazy.seq)
	eager := newBackoff(q)
	for i := 0; i < 20; i++ {
		if i == 8 {
			lazy.reset()
			eager.reset()
		}
		if dl, de := lazy.next(), eager.next(); dl != de {
			t.Fatalf("delay %d: lazy %v, eager %v", i, dl, de)
		}
	}
}

func TestBackoffDefaultsApply(t *testing.T) {
	var p RetryPolicy
	if p.attempts() != 6 || p.base() != 100*time.Millisecond || p.max() != 5*time.Second {
		t.Fatalf("zero-value policy resolved to attempts=%d base=%v max=%v",
			p.attempts(), p.base(), p.max())
	}
}

// TestSubmitRetriesTransient503 proves the retry layer absorbs a transiently
// overloaded daemon: two 503s, then success.
func TestSubmitRetriesTransient503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // ignored (non-positive): backoff schedule applies
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "j-1", State: api.StateQueued})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	info, err := c.Submit(context.Background(), api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "j-1" {
		t.Fatalf("info %+v", info)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", got)
	}
}

// TestRetryAfterHintIsParsed: a 503's Retry-After header surfaces on the
// typed error and marks it transient, so the sleep layer can honor it.
func TestRetryAfterHintIsParsed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 1} // observe the raw error, no retries
	_, err := c.Job(context.Background(), "j-1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want APIError", err)
	}
	if apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", apiErr.RetryAfter)
	}
	ra, ok := transient(err)
	if !ok || ra != 2*time.Second {
		t.Fatalf("transient() = (%v, %v), want (2s, true)", ra, ok)
	}
}

// TestPermanentErrorsAreNotRetried: a 400 must burn exactly one attempt.
func TestPermanentErrorsAreNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad spec"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	if _, err := c.Submit(context.Background(), api.JobSpec{}); err == nil {
		t.Fatal("bad spec succeeded")
	} else if IsTransient(err) {
		t.Fatalf("400 classified transient: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a permanent error, want 1", got)
	}
}

// TestTransientClassification pins the taxonomy the retry layers share.
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&APIError{Status: 400}, false},
		{&APIError{Status: 404}, false},
		{&APIError{Status: 500}, false},
		{&APIError{Status: 502}, true},
		{&APIError{Status: 503}, true},
		{&APIError{Status: 504}, true},
		{errors.New("read tcp: connection reset by peer"), true},
		{fmt.Errorf("wrapped: %w", &APIError{Status: 503}), true},
		{&JobError{Info: api.JobInfo{ID: "j", State: api.StateFailed, Error: "deadline: exceeded"}}, false},
		{fmt.Errorf("wrapped: %w", &JobError{Info: api.JobInfo{State: api.StateCancelled}}), false},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRunResubmitsAfterDaemonRestart simulates a daemon that restarts and
// disowns the job id mid-wait: the first submission's id starts answering
// 404, and Run must recover by resubmitting the content-addressed spec.
func TestRunResubmitsAfterDaemonRestart(t *testing.T) {
	result := api.Result{Key: "k", Version: "test", StopReason: "halt"}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			if submits.Add(1) == 1 {
				// Pre-restart daemon: accepts the job, then "dies".
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(api.JobInfo{ID: "j-old", State: api.StateQueued})
				return
			}
			// Post-restart daemon: same spec hits its cache, terminal at once.
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobInfo{
				ID: "j-new", State: api.StateDone, Cached: true, Result: resultJSON,
			})
		default:
			// Every status/event read of the lost id: the restarted daemon
			// has never heard of it.
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	res, info, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "halt" || !info.Cached || info.ID != "j-new" {
		t.Fatalf("res=%+v info=%+v", res, info)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("daemon saw %d submits, want 2 (original + resubmission)", got)
	}
}

// TestRunGivesUpWhenJobKeepsVanishing: if every resubmission's id is
// disowned too, Run fails with the job-lost error instead of looping.
func TestRunGivesUpWhenJobKeepsVanishing(t *testing.T) {
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			n := submits.Add(1)
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobInfo{ID: fmt.Sprintf("j-%d", n), State: api.StateQueued})
			return
		}
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	_, _, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
	if err == nil || !IsUnknownJob(err) {
		t.Fatalf("err = %v, want wrapped unknown-job failure", err)
	}
	if got := submits.Load(); got != resubmitAttempts {
		t.Fatalf("daemon saw %d submits, want %d", got, resubmitAttempts)
	}
}

// TestEventsReconnectsAndDedups: a stream that dies mid-flight (connection
// abort) is reconnected; the daemon replays its buffer and the client must
// deliver each sequence number exactly once, in order.
func TestEventsReconnectsAndDedups(t *testing.T) {
	events := []api.Event{
		{Seq: 1, Cycle: 1000},
		{Seq: 2, Cycle: 2000},
		{Seq: 3, Cycle: 3000},
		{Seq: 4, Cycle: 4000, State: api.StateDone, Final: true},
	}
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		if conns.Add(1) == 1 {
			// First connection: two events, then the connection dies.
			enc.Encode(events[0])
			enc.Encode(events[1])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		// Reconnection: full replay from the buffer, through the final event.
		for _, ev := range events {
			enc.Encode(ev)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	var seen []uint64
	err := c.Events(context.Background(), "j-1", func(ev api.Event) error {
		seen = append(seen, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("delivered seqs %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("delivered seqs %v, want %v (duplicate or reordered across reconnect)", seen, want)
		}
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("server saw %d stream connections, want 2", got)
	}
}

// TestEventsDeliversLongLines: an event line longer than 64 KiB still
// arrives whole, since the scanner grows past its starting size up to
// maxEventLine, and the stream goes on.
func TestEventsDeliversLongLines(t *testing.T) {
	pad := strings.Repeat("x", 100<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"seq\":1,\"cycle\":1000,\"pad\":%q}\n", pad)
		json.NewEncoder(w).Encode(api.Event{Seq: 2, State: api.StateDone, Final: true})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	var seen []api.Event
	err := c.Events(context.Background(), "j-1", func(ev api.Event) error {
		seen = append(seen, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0].Cycle != 1000 || !seen[1].Final {
		t.Fatalf("delivered %+v, want the long event and then the final one", seen)
	}
}

// TestEventsSurfacesCallbackError: an error from the caller's callback must
// abort the stream verbatim, never be retried past.
func TestEventsSurfacesCallbackError(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		json.NewEncoder(w).Encode(api.Event{Seq: 1, Cycle: 1000})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	sentinel := errors.New("caller aborts")
	err := c.Events(context.Background(), "j-1", func(api.Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's own error", err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("stream reconnected %d times past a callback error", got-1)
	}
}

// TestWaitRecoversWhenStreamsEndInconclusively: every event connection ends
// cleanly but without a final event; Wait must converge via backed-off
// re-polling of the status endpoint.
func TestWaitRecoversWhenStreamsEndInconclusively(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j-1/events" {
			return // empty 200: clean end, no final event
		}
		info := api.JobInfo{ID: "j-1", State: api.StateRunning}
		if polls.Add(1) >= 4 {
			info.State = api.StateDone
		}
		json.NewEncoder(w).Encode(info)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	info, err := c.Wait(context.Background(), "j-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != api.StateDone {
		t.Fatalf("state %s", info.State)
	}
}

// TestWaitStartsWithTheStream: waiting on a running job opens the event
// stream first — the daemon ends the stream only after the job's end is
// recorded, so a status read before it would be a wasted round trip. This
// stub answers in the older format, whose final line carries no job, so Wait
// then reads the status once.
func TestWaitStartsWithTheStream(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	state := api.StateRunning // until the stream has carried the end
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		paths = append(paths, r.URL.Path)
		if r.URL.Path == "/v1/jobs/j-1/events" {
			enc := json.NewEncoder(w)
			enc.Encode(api.Event{Seq: 1, State: api.StateRunning})
			enc.Encode(api.Event{Seq: 2, State: api.StateDone, Final: true})
			state = api.StateDone
			return
		}
		json.NewEncoder(w).Encode(api.JobInfo{ID: "j-1", State: state})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	info, err := c.Wait(context.Background(), "j-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != api.StateDone {
		t.Fatalf("state %s", info.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"/v1/jobs/j-1/events", "/v1/jobs/j-1"}; !slices.Equal(paths, want) {
		t.Fatalf("requests %v, want %v", paths, want)
	}
}

// TestWaitUnknownJob: a daemon that disowns the id answers the stream with
// a 404, which Wait returns at once for Run to resubmit on.
func TestWaitUnknownJob(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	if _, err := c.Wait(context.Background(), "j-1"); !IsUnknownJob(err) {
		t.Fatalf("err = %v, want an unknown-job error", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("%d requests, want 1", got)
	}
}

// TestWaitSurfacesPeerDown: waiting on a dead daemon ends in the typed
// PeerDownError after one retry budget of connection attempts, not one
// budget per request Wait makes.
func TestWaitSurfacesPeerDown(t *testing.T) {
	c := New(deadAddr(t))
	c.Retry = fastRetry
	_, err := c.Wait(context.Background(), "j-1")
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("err = %v, want a PeerDownError", err)
	}
	if pd.Attempts != fastRetry.MaxAttempts {
		t.Errorf("PeerDownError.Attempts = %d, want %d", pd.Attempts, fastRetry.MaxAttempts)
	}
	if st := c.Stats(); st.Retries+st.Reconnects != uint64(fastRetry.MaxAttempts-1) {
		t.Errorf("%d retries and %d reconnects, want %d in all", st.Retries, st.Reconnects, fastRetry.MaxAttempts-1)
	}
}

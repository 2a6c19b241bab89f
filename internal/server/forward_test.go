package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// Forwards off the pool: an execution whose key a peer owns waits on the
// peer without holding a worker, the degrade ladder's last rung simulates on
// a worker like any local job, and forwards in flight share the queue's
// admission bound. The names carry "Chaos" so make chaos runs them under
// -race.

// forwardTo is a forwarder that places every key on peer, the way
// internal/cluster does: the peer's job runs under the forward's context,
// and its stored result bytes come back verbatim.
func forwardTo(peer *Server) funcForwarder {
	return funcForwarder{
		remote: func(string) bool { return true },
		run: func(ctx context.Context, _ string, spec api.JobSpec) (ForwardOutcome, error) {
			res, info, err := peer.Run(ctx, spec)
			if err != nil {
				return ForwardOutcome{}, err
			}
			return ForwardOutcome{Result: info.Result, StopReason: res.StopReason,
				Cycles: res.Stats.Cycles, Insts: res.Stats.Insts, Peer: "peer", PeerCacheHit: info.Cached}, nil
		},
	}
}

// peerForwarder forwards every key to a fresh one-worker peer.
func peerForwarder(t *testing.T) Forwarder {
	return forwardTo(newTestServer(t, Options{Workers: 1, EventInterval: 1000}))
}

// blockingForwarder places every key on a peer that answers only once
// release closes — with ErrDegradeLocal, so the job then simulates locally —
// or when the forward's context ends. A nil release never answers.
func blockingForwarder(release <-chan struct{}) funcForwarder {
	return funcForwarder{
		remote: func(string) bool { return true },
		run: func(ctx context.Context, _ string, _ api.JobSpec) (ForwardOutcome, error) {
			select {
			case <-release:
				return ForwardOutcome{}, ErrDegradeLocal
			case <-ctx.Done():
				return ForwardOutcome{}, ctx.Err()
			}
		},
	}
}

// degradingForwarder places every key on a cluster with no healthy peer.
var degradingForwarder = funcForwarder{
	remote: func(string) bool { return true },
	run: func(context.Context, string, api.JobSpec) (ForwardOutcome, error) {
		return ForwardOutcome{}, ErrDegradeLocal
	},
}

// forwardingJob submits a job, waits until its forward has begun, ends it
// with stop and returns its id.
func forwardingJob(t *testing.T, s *Server, stop func(id string)) string {
	t.Helper()
	info := submitJob(t, s, uniqueSpec(12, 1<<40))
	waitFor(t, "the forward to begin", func() bool {
		cur, _ := s.Job(info.ID)
		return cur.State == api.StateRunning
	})
	stop(info.ID)
	return info.ID
}

// releaser returns a channel and its idempotent close, which also runs at
// the test's cleanup, before the server's drain.
func releaser(t *testing.T) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return ch, release
}

// jobKey is the content-addressed key of spec.
func jobKey(t *testing.T, spec api.JobSpec) string {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// progressed reports whether the job has published a progress event with
// simulated cycles, i.e. its simulation has started.
func progressed(s *Server, id string) bool {
	ch, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		return false
	}
	defer unsubscribe()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return false
			}
			if ev.Cycle > 0 {
				return true
			}
		default:
			return false
		}
	}
}

// TestChaosForwardDoesNotBlockLocalJob: on a one-worker node, a local job
// submitted behind a forward whose peer has not answered yet runs and
// finishes while the forward still waits.
func TestChaosForwardDoesNotBlockLocalJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	release, free := releaser(t)
	remoteSpec := uniqueSpec(20, 5_000)
	remoteKey := jobKey(t, remoteSpec)
	fwd := blockingForwarder(release)
	fwd.remote = func(key string) bool { return key == remoteKey }
	s.SetForwarder(fwd)

	forwarded := submitJob(t, s, remoteSpec)
	waitFor(t, "the forward to begin", func() bool {
		cur, _ := s.Job(forwarded.ID)
		return cur.State == api.StateRunning
	})
	local := submitJob(t, s, uniqueSpec(21, 5_000))
	ch, unsubscribe, _ := s.Subscribe(local.ID)
	defer unsubscribe()
	timeout := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-timeout:
			t.Fatal("the local job waited behind a forward for 10 s")
		}
	}
	if cur, _ := s.Job(local.ID); cur.State != api.StateDone {
		t.Fatalf("local job state %s (%s), want done", cur.State, cur.Error)
	}
	if cur, _ := s.Job(forwarded.ID); cur.State != api.StateRunning {
		t.Fatalf("forwarded job state %s while its peer has not answered, want running", cur.State)
	}

	free()
	if final := waitJob(t, s, forwarded.ID); final.State != api.StateDone {
		t.Fatalf("forwarded job state %s (%s) after its peer degraded it, want done", final.State, final.Error)
	}
}

// TestChaosDegradedForwardsUseThePool: the degrade ladder's last rung
// simulates on a pool worker like any local job, so Options.Workers bounds
// degraded simulations too. On a one-worker node a second degraded job
// waits in the queue, without simulating, until the first frees the worker;
// and a degraded result is byte-identical to a local run.
func TestChaosDegradedForwardsUseThePool(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	s.SetForwarder(degradingForwarder)

	first := submitJob(t, s, uniqueSpec(30, 1<<40))
	waitFor(t, "the first degraded job to simulate", func() bool { return progressed(s, first.ID) })
	second := submitJob(t, s, uniqueSpec(31, 1<<40))
	waitFor(t, "the second degraded job to queue or simulate", func() bool {
		return s.QueueDepth() == 1 || progressed(s, second.ID)
	})
	// A simulation off the pool would publish progress within milliseconds.
	time.Sleep(100 * time.Millisecond)
	if progressed(s, second.ID) {
		t.Fatal("two degraded jobs simulated at once on a one-worker node")
	}
	if !progressed(s, first.ID) || s.QueueDepth() != 1 {
		t.Fatal("the first degraded job stopped holding the worker")
	}
	s.Cancel(first.ID)
	waitFor(t, "the second degraded job to simulate", func() bool { return progressed(s, second.ID) })
	s.Cancel(second.ID)

	for i := 0; i < 2; i++ {
		spec := uniqueSpec(32+i, 5_000)
		final := waitJob(t, s, submitJob(t, s, spec).ID)
		if final.State != api.StateDone {
			t.Fatalf("degraded job state %s (%s), want done", final.State, final.Error)
		}
		if want := rerunWithoutCache(t, spec); !bytes.Equal(final.Result, want) {
			t.Fatalf("degraded result differs from a local run:\n got: %s\nwant: %s", final.Result, want)
		}
	}
	if got := s.forwardDegraded.Load(); got != 4 {
		t.Fatalf("server.jobs.forward_degraded = %d, want 4", got)
	}
}

// TestChaosForwardAdmissionBound: forwards in flight are bounded by
// Options.QueueSize, as the queue is: a submit that would forward beyond it
// is refused with a retryable 503, a local submit is still admitted, and a
// forward that ends frees its place.
func TestChaosForwardAdmissionBound(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 1, EventInterval: 1000})
	release, free := releaser(t)
	localSpec := api.JobSpec{Asm: haltAsm}
	localKey := jobKey(t, localSpec)
	fwd := blockingForwarder(release)
	fwd.remote = func(key string) bool { return key != localKey }
	s.SetForwarder(fwd)
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(spec api.JobSpec) *http.Response {
		t.Helper()
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	first := httpJob(t, http.MethodPost, ts.URL+"/v1/jobs", uniqueSpec(40, 5_000))
	resp := post(uniqueSpec(41, 5_000))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("forward beyond the bound: HTTP %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := s.forwarding.Load(); got != 1 {
		t.Fatalf("%d forwards in flight, want 1", got)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("server.jobs.rejected = %d, want 1", got)
	}
	local := httpJob(t, http.MethodPost, ts.URL+"/v1/jobs", localSpec)
	if final := waitJob(t, s, local.ID); final.State != api.StateDone {
		t.Fatalf("local job state %s beside a full forward bound, want done", final.State)
	}

	free()
	waitJob(t, s, first.ID)
	waitFor(t, "the forward to return", func() bool { return s.forwarding.Load() == 0 })
	if resp := post(uniqueSpec(41, 5_000)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forward after the bound freed: HTTP %d, want 202", resp.StatusCode)
	}
}

// TestChaosForwardSpansStitch: a forward's queue.wait and simulate spans
// parent onto its job span, as a local run's do, and simulate names the
// peer that answered and whether it answered from its cache — what a merged
// cross-node trace stitches on.
func TestChaosForwardSpansStitch(t *testing.T) {
	peer := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	spec := uniqueSpec(50, 5_000)
	if _, _, err := peer.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000})
	s.SetForwarder(forwardTo(peer))
	info := submitJob(t, s, spec)
	if final := waitJob(t, s, info.ID); final.State != api.StateDone {
		t.Fatalf("forwarded job state %s (%s)", final.State, final.Error)
	}

	var root otrace.SpanData
	for _, sd := range s.SpanRecorder().Spans() {
		if sd.Name == "job" && sd.Attrs["job_id"] == info.ID {
			root = sd
		}
	}
	if root.SpanID == "" {
		t.Fatal("no job span")
	}
	stages := map[string]otrace.SpanData{}
	for _, sd := range s.SpanRecorder().Spans() {
		if sd.TraceID == root.TraceID && sd.ParentID == root.SpanID {
			stages[sd.Name] = sd
		}
	}
	for _, name := range []string{"queue.wait", "simulate"} {
		if _, ok := stages[name]; !ok {
			t.Fatalf("no %s span under the job span (children: %v)", name, spanNames(s.SpanRecorder().Spans()))
		}
	}
	sim := stages["simulate"]
	if sim.Attrs["forwarded_to"] != "peer" || sim.Attrs["peer_cache_hit"] != true {
		t.Fatalf("simulate span attrs %v, want forwarded_to=peer and peer_cache_hit=true", sim.Attrs)
	}
}

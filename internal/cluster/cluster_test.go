package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
)

// The cluster chaos suite: real daemons behind httptest listeners, a real
// coordinator over them, and failures injected at the transport (abrupt
// listener close), at the handler (latency middleware) and at the seams
// (faults plans). Run under -race (make chaos-cluster): the coordinator's
// hedge/failover races against real completions here.

// clusterSpec returns the i-th distinct halting spec — a tiny countdown
// loop, so cluster jobs finish in microseconds of simulated work.
func clusterSpec(i int) api.JobSpec {
	return api.JobSpec{Asm: fmt.Sprintf(
		"main:\n    movi t0, %d\nloop:\n    addi t0, t0, -1\n    bne t0, zero, loop\n    halt\n", i+2)}
}

// fastRetry keeps transport-level retries fast enough for tests.
var fastRetry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

// testNode is one daemon: an in-process server.Server behind a real
// listener.
type testNode struct {
	s  *server.Server
	ts *httptest.Server
}

func (n *testNode) url() string { return n.ts.URL }

// kill simulates a node dying mid-flight: in-flight connections are severed
// abruptly, then the listener closes. The server's workers are shut down in
// cleanup, not here — like a SIGKILLed process, nobody drains gracefully.
func (n *testNode) kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// startNodes launches n daemons. wrap, when non-nil, can interpose
// middleware on node i's handler (the slow-peer tests).
func startNodes(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		s := server.New(server.Options{Workers: 2, EventInterval: 1000})
		var h http.Handler = s
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		nodes[i] = &testNode{s: s, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
	}
	return nodes
}

// coordinatorOver builds a bench-style coordinator (Self = "", every key
// remote) over the nodes with fast retries and no background prober —
// tests call ProbeNow when they want fresh health.
func coordinatorOver(t *testing.T, nodes []*testNode, opt Options) *Coordinator {
	t.Helper()
	for _, n := range nodes {
		opt.Peers = append(opt.Peers, n.url())
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = -1
	}
	opt.Retry = fastRetry
	co, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// specOwnedBy searches the distinct-spec space for one the ring places on
// the given node first — how tests aim a job at a particular peer.
func specOwnedBy(t *testing.T, co *Coordinator, node string) api.JobSpec {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		spec := clusterSpec(i)
		key, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		if co.Owner(key) == node {
			return spec
		}
	}
	t.Fatalf("no spec found owned by %s", node)
	return api.JobSpec{}
}

// TestClusterPlacementAndPeerCacheHit: a spec simulates once cluster-wide.
// The first run lands on its owner; a rerun — even from a brand-new
// coordinator, as another client process would be — is placed on the same
// owner and answered from its content-addressed result store, bit-identical,
// without simulating anywhere.
func TestClusterPlacementAndPeerCacheHit(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	co := coordinatorOver(t, nodes, Options{})

	const jobs = 6
	raw := make(map[int][]byte)
	for i := 0; i < jobs; i++ {
		res, rr, err := co.Run(context.Background(), clusterSpec(i))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rr.PeerCacheHit {
			t.Fatalf("job %d: cold run reported a peer cache hit", i)
		}
		if res.StopReason != "halt" {
			t.Fatalf("job %d: stop %q", i, res.StopReason)
		}
		raw[i] = rr.Raw
	}

	// A second coordinator = a different client process: same membership,
	// same placement, so every rerun must hit the owner's result store.
	co2 := coordinatorOver(t, nodes, Options{})
	for i := 0; i < jobs; i++ {
		_, rr, err := co2.Run(context.Background(), clusterSpec(i))
		if err != nil {
			t.Fatalf("rerun %d: %v", i, err)
		}
		if !rr.PeerCacheHit {
			t.Errorf("rerun %d: want a peer cache hit, got a simulation on %s", i, rr.Peer)
		}
		if !bytes.Equal(rr.Raw, raw[i]) {
			t.Errorf("rerun %d: result bytes differ from first run", i)
		}
	}
	if hits := co2.peerHits.Load(); hits != jobs {
		t.Errorf("peer cache hits = %d, want %d", hits, jobs)
	}

	// Placement spread the cold jobs around: no single node simulated all of
	// them (6 jobs across 3 nodes; the ring balance test bounds the skew).
	byPeer := map[string]int{}
	for i := 0; i < jobs; i++ {
		key, _ := clusterSpec(i).Key()
		byPeer[co.Owner(key)]++
	}
	if len(byPeer) < 2 {
		t.Errorf("all %d jobs hashed to one node: %v", jobs, byPeer)
	}
}

// TestClusterFailoverOnNodeDeath: kill the node owning a key, run the key.
// The coordinator must fail over to the next replica via content-addressed
// resubmission and still return a full result; the dead peer must be marked
// down so later placements skip it without new connection attempts.
func TestClusterFailoverOnNodeDeath(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	co := coordinatorOver(t, nodes, Options{HedgeAfter: -1})

	victim := nodes[1]
	spec := specOwnedBy(t, co, victim.url())
	victim.kill()

	res, rr, err := co.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after node death: %v", err)
	}
	if res.StopReason != "halt" {
		t.Fatalf("stop %q", res.StopReason)
	}
	if rr.Peer == victim.url() {
		t.Fatalf("result attributed to the dead node %s", rr.Peer)
	}
	if got := co.failovers.Load(); got < 1 {
		t.Errorf("failovers = %d, want >= 1", got)
	}
	if got := co.resubmits.Load(); got < 1 {
		t.Errorf("resubmits = %d, want >= 1", got)
	}
	if p := co.byName[victim.url()]; !p.isDown() {
		t.Error("dead peer not marked down after connection-level failure")
	}
	// The failover target must match the ring's preference list — the same
	// node a rebuilt ring without the victim would own the key on.
	key, _ := spec.Key()
	order := co.ring.Order(key)
	if len(order) < 2 || rr.Peer != order[1] {
		t.Errorf("failover landed on %s, ring preference said %v", rr.Peer, order)
	}
}

// TestClusterHedgeOnSlowPeer: one node answers submits only after a long
// stall. A key it owns must be hedged to the next replica once the latency
// budget lapses, and the hedge must win.
func TestClusterHedgeOnSlowPeer(t *testing.T) {
	const stall = 600 * time.Millisecond
	var slowURL string
	nodes := startNodes(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Stall job submissions only; health and status stay snappy, so
			// the node looks alive — precisely the case hedging exists for.
			if r.Method == http.MethodPost {
				time.Sleep(stall)
			}
			h.ServeHTTP(w, r)
		})
	})
	slowURL = nodes[0].url()
	co := coordinatorOver(t, nodes, Options{HedgeAfter: 50 * time.Millisecond})

	spec := specOwnedBy(t, co, slowURL)
	start := time.Now()
	res, rr, err := co.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if res.StopReason != "halt" {
		t.Fatalf("stop %q", res.StopReason)
	}
	if co.hedgesFired.Load() < 1 {
		t.Error("no hedge fired against the stalled peer")
	}
	if rr.Peer == slowURL || !rr.Hedged {
		t.Errorf("winner %s (hedged=%v); want the hedge on a fast replica", rr.Peer, rr.Hedged)
	}
	if co.hedgesWon.Load() < 1 {
		t.Error("hedge did not win against a peer stalled far beyond the budget")
	}
	if took := time.Since(start); took >= stall {
		t.Errorf("run took %v — the hedge should finish well before the %v stall", took, stall)
	}
}

// TestClusterDegradeWhenAllPeersDown: with every peer dead the coordinator
// reports ErrNoPeers fast (no per-job connection storms once health has the
// truth), and Remote turns false — the local degradation fast path.
func TestClusterDegradeWhenAllPeersDown(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	co := coordinatorOver(t, nodes, Options{HedgeAfter: -1})
	for _, n := range nodes {
		n.kill()
	}
	// Two probe rounds: peers are marked down after two consecutive failures.
	co.ProbeNow()
	co.ProbeNow()

	spec := clusterSpec(0)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if co.Remote(key) {
		t.Error("Remote() = true with every peer down; want the local fast path")
	}
	_, err = co.RunRemote(context.Background(), key, spec)
	if !errors.Is(err, ErrNoPeers) {
		t.Fatalf("RunRemote error = %v, want ErrNoPeers", err)
	}
	if got := co.degraded.Load(); got < 1 {
		t.Errorf("degraded counter = %d, want >= 1", got)
	}
}

// TestClusterEmbeddedDegradeRunsLocally exercises the daemon-side ladder:
// a server whose forwarder says "remote" but whose cluster has no healthy
// peers must simulate the job itself, count it, and still answer bit-exact.
func TestClusterEmbeddedDegradeRunsLocally(t *testing.T) {
	nodes := startNodes(t, 1, nil)
	co := coordinatorOver(t, nodes, Options{HedgeAfter: -1})
	nodes[0].kill()
	co.ProbeNow()
	co.ProbeNow()

	s := server.New(server.Options{Workers: 1, EventInterval: 1000})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	s.SetForwarder(degradingForwarder{co})

	info, err := s.Submit(clusterSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("state %s (err %q), want done via local degradation", final.State, final.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("degraded job carries no result")
	}
}

// degradingForwarder is the cmd/specmpkd adapter in miniature: coordinator
// vocabulary in, server vocabulary out.
type degradingForwarder struct{ co *Coordinator }

func (f degradingForwarder) Remote(string) bool { return true } // force the seam
func (f degradingForwarder) RunRemote(ctx context.Context, key string, spec api.JobSpec) (server.ForwardOutcome, error) {
	rr, err := f.co.RunRemote(ctx, key, spec)
	if err != nil {
		if errors.Is(err, ErrNoPeers) {
			return server.ForwardOutcome{}, fmt.Errorf("%w: %v", server.ErrDegradeLocal, err)
		}
		return server.ForwardOutcome{}, err
	}
	return server.ForwardOutcome{Result: rr.Raw, StopReason: rr.StopReason,
		Cycles: rr.Cycles, Insts: rr.Insts, Peer: rr.Peer, PeerCacheHit: rr.PeerCacheHit}, nil
}

func waitTerminal(t *testing.T, s *server.Server, id string) api.JobInfo {
	t.Helper()
	ch, cancel, ok := s.Subscribe(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	defer cancel()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				info, ok := s.Job(id)
				if !ok || !api.Terminal(info.State) {
					t.Fatalf("job %s not terminal after stream close", id)
				}
				return info
			}
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

// TestClusterPlacementFollowsRingOrder (white-box): placement offers every
// healthy peer, in the key's ring order, so the owner is always tried first.
func TestClusterPlacementFollowsRingOrder(t *testing.T) {
	co, err := New(Options{
		Peers:         []string{"http://a:1", "http://b:1", "http://c:1"},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	key := "some-job-key"
	order := co.ring.Order(key)
	cands := co.placement(key)
	if len(cands) != 3 {
		t.Fatalf("placement dropped candidates: %v", cands)
	}
	for i, want := range order {
		if cands[i].name != want {
			t.Fatalf("placement reordered: got %s at %d, want %s", cands[i].name, i, want)
		}
	}
}

// TestClusterHealthProbeTracksDrain: a draining peer (healthz "draining")
// is removed from placement without any connection failure.
func TestClusterHealthProbeTracksDrain(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	co := coordinatorOver(t, nodes, Options{HedgeAfter: -1})
	co.ProbeNow()
	for _, p := range co.peers {
		if p.isDown() {
			t.Fatalf("peer %s down after a clean probe", p.name)
		}
	}

	// Drain node 0: new submits 503, healthz flips to "draining".
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nodes[0].s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	co.ProbeNow() // drain state is explicit — one probe suffices, no failure threshold
	if p := co.byName[nodes[0].url()]; !p.isDown() {
		t.Error("draining peer still a placement candidate")
	}
	if p := co.byName[nodes[1].url()]; p.isDown() {
		t.Error("healthy peer marked down")
	}
}

// TestClusterChaosSeededFaultsBitIdentical: arm a seeded plan over the
// cluster seams (forward faults, suppressed hedges and rebalances) plus a
// server-side cache-put drop, run a sweep, and require
// every job to complete with bytes identical to a pristine single-node run.
// Faults may cost retries and failovers — never correctness.
func TestClusterChaosSeededFaultsBitIdentical(t *testing.T) {
	// Pristine pass first: one clean node behind its own coordinator, the
	// reference bytes in the cluster's canonical (compact) form.
	pristine := startNodes(t, 1, nil)
	refCo := coordinatorOver(t, pristine, Options{HedgeAfter: -1})
	ref := make(map[int][]byte)
	const jobs = 8
	for i := 0; i < jobs; i++ {
		_, rr, err := refCo.Run(context.Background(), clusterSpec(i))
		if err != nil {
			t.Fatalf("pristine job %d: %v", i, err)
		}
		ref[i] = rr.Raw
	}

	nodes := startNodes(t, 3, nil)
	co := coordinatorOver(t, nodes, Options{HedgeAfter: 100 * time.Millisecond})
	if err := faults.Arm(faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Point: "cluster.peer.forward", Action: faults.ActionError, Probability: 0.3},
		{Point: "cluster.hedge.fire", Action: faults.ActionDrop, Probability: 0.5},
		{Point: "server.cache.put", Action: faults.ActionDrop, Probability: 0.3},
	}}); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	for i := 0; i < jobs; i++ {
		// Injected forward faults can exhaust every candidate for one job —
		// exactly when production degrades and retries — so the sweep retries
		// ErrNoPeers, never accepting a wrong result.
		var res api.Result
		var rr RemoteResult
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			res, rr, err = co.Run(context.Background(), clusterSpec(i))
			if err == nil || !errors.Is(err, ErrNoPeers) {
				break
			}
		}
		if err != nil {
			t.Fatalf("chaos job %d: %v", i, err)
		}
		if res.StopReason != "halt" {
			t.Fatalf("chaos job %d: stop %q", i, res.StopReason)
		}
		if !bytes.Equal(rr.Raw, ref[i]) {
			t.Errorf("chaos job %d: bytes differ from the pristine run", i)
		}
	}
}

// TestHopDecodesResultHead: the hop reads only a peer result's headline
// figures, so it decodes them alone and leaves the result's metrics map
// (about 300 entries for a capped full job) to Coordinator.Run's one full
// decode. The figures match a full decode, the bytes pass through verbatim,
// and the decode stays within a few allocations (a full decode of this
// result makes over 300).
func TestHopDecodesResultHead(t *testing.T) {
	s := server.New(server.Options{Workers: 1})
	defer s.Shutdown(context.Background())
	res, info, err := s.Run(context.Background(), api.JobSpec{Workload: "548.exchange2_r", Mode: "specmpk", MaxCycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remoteResult("p", info)
	if err != nil {
		t.Fatal(err)
	}
	if rr.StopReason != res.StopReason || rr.Cycles != res.Stats.Cycles || rr.Insts != res.Stats.Insts ||
		!bytes.Equal(rr.Raw, info.Result) || rr.Cycles == 0 {
		t.Fatalf("hop read %s/%d/%d, want %s/%d/%d from the full decode, bytes verbatim",
			rr.StopReason, rr.Cycles, rr.Insts, res.StopReason, res.Stats.Cycles, res.Stats.Insts)
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = remoteResult("p", info) })
	full := testing.AllocsPerRun(20, func() { _ = json.Unmarshal(info.Result, new(api.Result)) })
	t.Logf("%d-byte result: the hop's decode makes %.0f allocations, a full decode %.0f", len(info.Result), allocs, full)
	if allocs > 20 {
		t.Fatalf("the hop's decode made %.0f allocations, want at most 20", allocs)
	}
}

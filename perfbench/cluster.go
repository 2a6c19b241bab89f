package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/otrace"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/stats"
)

// Service-cluster traffic shape: each client sends one cold job and then
// resubmitsPerCold resubmissions drawn from its own last recentKeys keys,
// which stay far under the 512-entry result cache while the run as a whole
// overflows it.
const (
	clusterClients   = 2
	resubmitsPerCold = 8
	recentKeys       = 32
	coldMaxCycles    = 20_000
)

// node is one in-process daemon serving HTTP on a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

func startNode() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		srv:  server.New(server.Options{Workers: 1, Logger: discardLogger()}),
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	n.hs = &http.Server{Handler: n.srv}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	_ = n.hs.Close() // drops open connections; nothing to report at teardown
	<-n.done
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a timed-out drain cancels what is left; nothing to report
}

// forwarder adapts the coordinator onto the server's Forwarder seam, as the
// daemon does.
type forwarder struct{ co *cluster.Coordinator }

func (f forwarder) Remote(key string) bool { return f.co.Remote(key) }

func (f forwarder) RunRemote(ctx context.Context, key string, spec api.JobSpec) (server.ForwardOutcome, error) {
	rr, err := f.co.RunRemote(ctx, key, spec)
	if err != nil {
		if errors.Is(err, cluster.ErrNoPeers) {
			return server.ForwardOutcome{}, fmt.Errorf("%w: %v", server.ErrDegradeLocal, err)
		}
		return server.ForwardOutcome{}, err
	}
	return server.ForwardOutcome{
		Result: rr.Raw, StopReason: rr.StopReason, Cycles: rr.Cycles, Insts: rr.Insts,
		Peer: rr.Peer, PeerCacheHit: rr.PeerCacheHit,
	}, nil
}

// clusterEnv is service-cluster: the typed client talks over loopback TCP
// to node A of a two-node cluster; A's coordinator (Self=A, Peers=[A,B])
// forwards the keys B owns. With a single peer candidate, placement is
// deterministic and hedging and bounded-load demotion never engage.
type clusterEnv struct {
	a, b     *node
	coord    *cluster.Coordinator
	coordReg *stats.Registry
	cl, clB  *client.Client
	g        grid
	t        *tally
	state    [clusterClients]*clientState
}

// clientState is one client's sequence: its cold-job count and its most
// recent keys with the digest of their first answer.
type clientState struct {
	cold   int
	recent []answered
	rng    *rand.Rand
}

type answered struct {
	spec   api.JobSpec
	digest [32]byte
}

func setupCluster(seed int64, t *tally) (*clusterEnv, error) {
	programs, err := programsLongestFirst()
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{
		g: grid{
			seed: seed, stream: streamTimed, programs: programs,
			policies: policies(), maxCycles: coldMaxCycles,
		},
		t: t,
	}
	if e.a, err = startNode(); err != nil {
		return nil, err
	}
	if e.b, err = startNode(); err != nil {
		e.close()
		return nil, err
	}
	e.coord, err = cluster.New(cluster.Options{
		Peers: []string{e.a.addr, e.b.addr}, Self: e.a.addr,
		ProbeInterval: -1, Logger: discardLogger(),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coordReg = stats.NewRegistry()
	e.coord.RegisterMetrics(e.coordReg)
	e.coord.ProbeNow()
	e.a.srv.SetForwarder(forwarder{e.coord})
	e.cl, e.clB = client.New(e.a.addr), client.New(e.b.addr)
	for c := range e.state {
		e.state[c] = &clientState{rng: rand.New(rand.NewPCG(uint64(seed), uint64(c)))}
	}
	// Warm-up: four cold jobs on the warm-up stream, each resubmitted once.
	warm := e.g
	warm.stream = streamWarm
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		for k := 0; k < 2; k++ {
			info, err := e.cl.Submit(ctx, warm.spec(i))
			if err == nil && !api.Terminal(info.State) {
				info, err = e.cl.Wait(ctx, info.ID)
			}
			if err == nil {
				_, err = verifyJob(info)
			}
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// serviceClusterColdPerS is the reference host's cold-job rate, which sizes
// a window's job list (see runWindow).
const serviceClusterColdPerS = 115

// window runs whole passes of cold jobs over the program x policy grid,
// split evenly between the clients, each cold job followed by its
// resubmissions; the clients' sequences continue from any earlier window.
func (e *clusterEnv) window(rec *otrace.Recorder, d time.Duration) windowResult {
	perClient := jobsFor(d, serviceClusterColdPerS, e.g.size()*clusterClients) / clusterClients
	return runWindow(clusterClients, func(c int, add func(record)) {
		st := e.state[c]
		for end := st.cold + perClient; st.cold < end; {
			i := clusterClients*st.cold + c
			st.cold++
			if a, ok := e.cold(rec, add, i); ok {
				st.recent = append(st.recent, a)
				if len(st.recent) > recentKeys {
					st.recent = st.recent[1:]
				}
			}
			for h := 0; h < resubmitsPerCold && len(st.recent) > 0; h++ {
				e.resubmit(rec, add, i, st.recent[st.rng.IntN(len(st.recent))])
			}
		}
	})
}

// requestTimeout bounds one request, so a wedged node fails the run instead
// of hanging it.
const requestTimeout = 60 * time.Second

// cold sends job i, waits for it over the NDJSON event stream, and checks
// the answer.
func (e *clusterEnv) cold(rec *otrace.Recorder, add func(record), i int) (answered, bool) {
	spec := e.g.spec(i)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := request(rec, i, "cold")
	t0 := time.Now()
	sp := rec.StartSpan(root.Context(), "client.Submit")
	info, err := e.cl.Submit(ctx, spec)
	sp.SetAttr("disposition", disposition(info))
	sp.End()
	if err == nil && !api.Terminal(info.State) {
		wsp := rec.StartSpan(root.Context(), "client.Wait")
		info, err = e.cl.Wait(ctx, info.ID)
		wsp.End()
	}
	var res api.Result
	if err == nil {
		res, err = verifyJob(info)
	}
	var digest [32]byte
	if err == nil {
		digest, err = resultDigest(info.Result)
	}
	lat := msSince(t0)
	root.End()
	e.t.attempt("cold", err)
	if err != nil {
		return answered{}, false
	}
	add(record{
		index: i, spec: spec, simulated: true, latencyMS: lat, queueMS: info.QueueWaitMS,
		stats: res.Stats, remote: e.coord.Owner(info.Key) != e.a.addr,
	})
	return answered{spec: spec, digest: digest}, true
}

// resubmit resends an answered spec: it must come back done without
// simulating — a cache hit, or deduped onto the execution that just
// finished — with the first answer's bytes.
func (e *clusterEnv) resubmit(rec *otrace.Recorder, add func(record), i int, a answered) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	root := request(rec, i, "resubmit")
	t0 := time.Now()
	sp := rec.StartSpan(root.Context(), "client.Submit")
	info, err := e.cl.Submit(ctx, a.spec)
	served := err == nil && api.Terminal(info.State)
	sp.SetAttr("disposition", disposition(info))
	sp.End()
	if err == nil && !served {
		info, err = e.cl.Wait(ctx, info.ID)
	}
	if err == nil {
		_, err = verifyJob(info)
	}
	if err == nil {
		var digest [32]byte
		if digest, err = resultDigest(info.Result); err == nil && digest != a.digest {
			err = fmt.Errorf("job %s: resubmitted result differs from the first answer", info.ID)
		}
	}
	lat := msSince(t0)
	root.End()
	e.t.attempt("resubmit", err)
	if err != nil {
		return
	}
	add(record{
		index: i, spec: a.spec, latencyMS: lat,
		served: served, dedup: served && info.Deduped,
	})
}

func (e *clusterEnv) counters() map[string]float64 {
	out := make(map[string]float64)
	snap := e.a.srv.Registry().Snapshot()
	for _, n := range []string{"server.cache.evictions", "server.cache.hits", "server.jobs.forwarded"} {
		out[n] = snap.Number(n)
	}
	cs := e.coordReg.Snapshot()
	for _, n := range []string{"cluster.peer_cache.lookups", "cluster.peer_cache.hits"} {
		out[n] = cs.Number(n)
	}
	out["client.retries"] = float64(e.cl.Stats().Retries)
	return out
}

func (e *clusterEnv) close() {
	if e.coord != nil {
		e.coord.Close()
	}
	for _, n := range []*node{e.a, e.b} {
		if n != nil {
			n.close()
		}
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

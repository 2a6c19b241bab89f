package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/workload"
)

// TestJobsRetriesTransientFailures: the -remote seam must absorb a daemon
// that transiently rejects (503) before accepting.
func TestJobsRetriesTransientFailures(t *testing.T) {
	result := api.Result{Key: "k", Version: "test", StopReason: "halt",
		Stats: pipeline.Stats{Cycles: 100, Insts: 50}}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{
			ID: "j-1", State: api.StateDone, Result: resultJSON,
		})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	r := Runner{Jobs: c.Run}
	res, _, err := r.run(api.SpecFor("w", workload.VariantFull, pipeline.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 100 {
		t.Fatalf("result stats %+v", res.Stats)
	}
}

// TestJobsDoesNotRetryTerminalFailures: a failed job (bad spec, panic,
// deadline) is deterministic — re-running reproduces it, so the runner must
// surface it after one attempt.
func TestJobsDoesNotRetryTerminalFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{
			ID: "j-1", State: api.StateFailed, Error: "deadline: wall-clock budget (10 ms) exceeded at cycle 42",
		})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	r := Runner{Jobs: c.Run}
	if _, _, err := r.run(api.SpecFor("w", workload.VariantFull, pipeline.DefaultConfig())); err == nil {
		t.Fatal("terminal failure succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("daemon saw %d submits for a terminal failure, want 1", got)
	}
}

// TestLocalJobsDoNotRetryTerminalFailures: the in-process seam classifies
// like the remote one. A failed job, a rejected spec and a run that does
// not halt each end the cell after one job.
func TestLocalJobsDoNotRetryTerminalFailures(t *testing.T) {
	srv := server.New(server.Options{Workers: 1})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	var calls atomic.Int32
	r := Runner{Jobs: func(ctx context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
		calls.Add(1)
		return srv.Run(ctx, spec)
	}}
	const spin = "main:\n    addi t0, t0, 1\n    jmp main\n"
	for name, spec := range map[string]api.JobSpec{
		"failed job":    {Asm: spin, MaxCycles: 1 << 40, MaxWallMS: 20},
		"rejected spec": {Workload: "no-such-workload"},
		"no halt":       {Asm: spin, MaxCycles: 1000},
	} {
		calls.Store(0)
		if _, _, err := r.run(spec); err == nil {
			t.Errorf("%s: succeeded", name)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("%s: ran %d jobs, want 1", name, got)
		}
	}
}

// TestClusterJobsDegradesToLocal: with every cluster peer down, ClusterJobs
// must fall to the in-process server and still deliver a real result — the
// degradation ladder's bottom rung, so a sweep survives a full outage.
func TestClusterJobsDegradesToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real local simulation")
	}
	// Two daemons that are already gone: bind, record, close.
	var dead []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead = append(dead, ts.URL)
		ts.Close()
	}
	co, err := cluster.New(cluster.Options{
		Peers:         dead,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		Retry:         client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.ProbeNow()
	co.ProbeNow() // two failed rounds mark every peer down

	p, ok := workload.ByName("520.omnetpp_r")
	if !ok {
		t.Fatal("workload 520.omnetpp_r missing")
	}
	cfg := pipeline.DefaultConfig()
	res, _, err := Runner{Jobs: ClusterJobs(co)}.run(api.SpecFor(p.Name, workload.VariantFull, cfg))
	if err != nil {
		t.Fatalf("degraded cell failed: %v", err)
	}
	// The reference runs the machine directly, not through any job seam.
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if res.Stats != m.Stats {
		t.Fatalf("degraded stats %+v != direct run %+v", res.Stats, m.Stats)
	}
}

// TestSampledFailsOverInCluster: in cluster mode every sampled cell gets
// placement and failover. With the first peer in ring order dead — the one
// a fixed single-peer client would have picked — every row must still
// complete on the survivor.
func TestSampledFailsOverInCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sampled and full simulations")
	}
	var urls []string
	byURL := map[string]*httptest.Server{}
	for i := 0; i < 2; i++ {
		s := server.New(server.Options{Workers: 2})
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(context.Background())
		})
		urls = append(urls, ts.URL)
		byURL[ts.URL] = ts
	}
	co, err := cluster.New(cluster.Options{
		Peers:         urls,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		Retry:         client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sort.Strings(urls) // the ring's node order
	dead := byURL[urls[0]]
	dead.CloseClientConnections()
	dead.Close()

	modes := pipeline.RegisteredModes()
	rows, err := Sampled(Runner{
		Workloads: []string{"548.exchange2_r"},
		Modes:     modes,
		Jobs:      ClusterJobs(co),
	})
	if err != nil {
		t.Fatalf("sampled sweep with a dead peer: %v", err)
	}
	if len(rows) != len(modes) {
		t.Fatalf("%d rows, want %d", len(rows), len(modes))
	}
	for _, row := range rows {
		if row.SampledCPI <= 0 || row.FullCPI <= 0 {
			t.Errorf("incomplete row %+v", row)
		}
	}
}

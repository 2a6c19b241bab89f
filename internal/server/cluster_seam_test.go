package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// The server side of the cluster seam: the healthz load figures operators
// read, the /v1/cache/{key} endpoint peers probe before simulating, the
// forwarded/resubmit submit markers, and the Forwarder hook itself.

// TestHealthzTracksLoad: the queueDepth/queueCap/jobsInFlight figures must
// reflect a busy daemon.
func TestHealthzTracksLoad(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 8, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	getHealthz := func() api.Healthz {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz api.Healthz
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz
	}

	if hz := getHealthz(); hz.QueueCap != 8 || hz.QueueDepth != 0 || hz.JobsInFlight != 0 {
		t.Fatalf("idle healthz %+v, want queueCap=8 and zero load", hz)
	}

	// One long spin occupies the single worker; more queue behind it.
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := s.Submit(api.JobSpec{
			Asm:       fmt.Sprintf("main:\n    addi t0, t0, %d\n    jmp main\n", i+1),
			MaxCycles: 30_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		hz := getHealthz()
		if hz.JobsInFlight >= 1 && hz.QueueDepth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never showed load: %+v", hz)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		s.Cancel(id)
	}
}

// TestChaosHealthzDuringDrain: mid-drain the daemon keeps answering healthz
// — with status "draining", so cluster peers stop placing work here — while
// in-flight jobs run down. A coordinator that cannot tell "draining" from
// "dead" would burn its failure budget on a node that is merely restarting.
func TestChaosHealthzDuringDrain(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 8, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Long enough to still be running when drain mode is observed (polled
	// every 2ms below), short enough to finish inside the shutdown window
	// even at race-detector speed (~300k simulated cycles/sec).
	info, err := s.Submit(spinSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Poll until drain mode is visible, then pin the payload.
	var hz api.Healthz
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatalf("healthz unreachable mid-drain: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("healthz not JSON mid-drain: %v", err)
		}
		if hz.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining: %+v", hz)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hz.Version != api.Version || hz.QueueCap != 8 {
		t.Fatalf("draining healthz dropped diagnostics: %+v", hz)
	}
	if hz.JobsInFlight < 1 {
		t.Fatalf("draining healthz hides the in-flight job: %+v", hz)
	}
	// New work is refused while the old job still runs to completion.
	if _, err := s.Submit(spinSpec(99)); err == nil {
		t.Fatal("submit accepted mid-drain")
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("in-flight job state %s after drain, want done", final.State)
	}
	<-drained
}

// TestCacheEndpointServesCanonicalBytes: a peer probing /v1/cache/{key} gets
// the stored result bytes verbatim on a hit and a clean 404 on a miss; the
// probe shows up in the peer-lookup counters, not the submit-path hit/miss
// statistics.
func TestCacheEndpointServesCanonicalBytes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	miss, err := http.Get(ts.URL + "/v1/cache/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, miss.Body)
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status %d, want 404", miss.StatusCode)
	}

	info, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("job state %s", final.State)
	}

	hit, err := http.Get(ts.URL + "/v1/cache/" + final.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer hit.Body.Close()
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", hit.StatusCode)
	}
	got, err := io.ReadAll(hit.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint serves the stored canonical form: final.Result arrived
	// re-indented by the job-info encoder, so compare compacted.
	var want bytes.Buffer
	if err := json.Compact(&want, final.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("cache endpoint bytes differ from the job's canonical result")
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{"server_cache_peer_lookups 2", "server_cache_peer_hits 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestResubmitMarkerCounts: a submit carrying the resubmit header is a
// recovery event — the server.jobs.resubmitted counter is how the e2e smoke
// proves restart recovery actually exercised resubmission.
func TestResubmitMarkerCounts(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"asm":"main:\n    halt\n"}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set(api.HeaderResubmit, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "server_jobs_resubmitted 1") {
		t.Error("resubmit marker not counted")
	}
}

// TestForwardedJobsNeverReforward: an execution a coordinator already
// placed here must simulate locally even when this node's own forwarder
// would place its key elsewhere — the loop-prevention invariant.
func TestForwardedJobsNeverReforward(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	var calls atomic.Int32
	s.SetForwarder(funcForwarder{
		remote: func(string) bool { return true },
		run: func(context.Context, string, api.JobSpec) (ForwardOutcome, error) {
			calls.Add(1)
			return ForwardOutcome{}, ErrDegradeLocal
		},
	})
	info, err := s.SubmitWith(SubmitOpts{Forwarded: true}, api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("forwarded job state %s (err %q)", final.State, final.Error)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("forwarder consulted %d times for an already-forwarded job", n)
	}

	// Sanity: a plain submit of a distinct spec does consult the forwarder
	// (and degrades to a local run on ErrDegradeLocal).
	info2, err := s.Submit(api.JobSpec{Asm: haltAsm, MaxCycles: 777_777})
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitJob(t, s, info2.ID)
	if final2.State != api.StateDone {
		t.Fatalf("degraded job state %s (err %q)", final2.State, final2.Error)
	}
	if calls.Load() == 0 {
		t.Error("forwarder never consulted for a plain submit")
	}
	if !strings.Contains(metricsOf(t, s), "server_jobs_forward_degraded 1") {
		t.Error("degradation not counted")
	}
}

// funcForwarder adapts plain funcs onto the Forwarder seam for tests.
type funcForwarder struct {
	remote func(key string) bool
	run    func(ctx context.Context, key string, spec api.JobSpec) (ForwardOutcome, error)
}

func (f funcForwarder) Remote(key string) bool { return f.remote(key) }
func (f funcForwarder) RunRemote(ctx context.Context, key string, spec api.JobSpec) (ForwardOutcome, error) {
	return f.run(ctx, key, spec)
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricsOf(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	return rec.Body.String()
}

package server

import (
	"bufio"
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
	"specmpk/internal/server/client"
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

// TestCacheEndpointServesCanonicalBytes: every response that carries a
// job's result carries the result store's bytes verbatim — the submit
// answer of a cache hit, the status of a simulated and of a cache-hit job,
// a result forwarded from a peer the way internal/cluster forwards, and a
// peer's /v1/cache/{key} probe. A probe miss is a clean 404, and probes
// show up in the peer-lookup counters, not the submit-path hit/miss
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

	spec := api.JobSpec{Asm: haltAsm}
	first := httpJob(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if final := waitJob(t, s, first.ID); final.State != api.StateDone {
		t.Fatalf("job state %s", final.State)
	}
	status := httpJob(t, http.MethodGet, ts.URL+"/v1/jobs/"+first.ID, nil)
	hit := httpJob(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
	if !hit.Cached {
		t.Fatal("resubmission was not answered from the cache")
	}
	hitStatus := httpJob(t, http.MethodGet, ts.URL+"/v1/jobs/"+hit.ID, nil)

	// A second node whose forwarder runs every job on the first through the
	// typed client and keeps the result bytes as they arrive.
	edge := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	peer := client.New(ts.URL)
	edge.SetForwarder(funcForwarder{
		remote: func(string) bool { return true },
		run: func(ctx context.Context, _ string, spec api.JobSpec) (ForwardOutcome, error) {
			res, info, err := peer.Run(ctx, spec)
			if err != nil {
				return ForwardOutcome{}, err
			}
			return ForwardOutcome{Result: info.Result, StopReason: res.StopReason,
				Cycles: res.Stats.Cycles, Insts: res.Stats.Insts, Peer: "origin", PeerCacheHit: info.Cached}, nil
		},
	})
	ets := httptest.NewServer(edge)
	defer ets.Close()
	fwd := httpJob(t, http.MethodPost, ets.URL+"/v1/jobs", spec)
	if final := waitJob(t, edge, fwd.ID); final.State != api.StateDone {
		t.Fatalf("forwarded job state %s (err %q)", final.State, final.Error)
	}
	forwarded := httpJob(t, http.MethodGet, ets.URL+"/v1/jobs/"+fwd.ID, nil)

	probe, err := http.Get(ts.URL + "/v1/cache/" + status.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Body.Close()
	if probe.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", probe.StatusCode)
	}
	stored, err := io.ReadAll(probe.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) == 0 {
		t.Fatal("cache endpoint served an empty result")
	}
	for _, c := range []struct {
		name string
		got  json.RawMessage
	}{
		{"job status", status.Result},
		{"cache-hit submit", hit.Result},
		{"cache-hit job status", hitStatus.Result},
		{"forwarded job status", forwarded.Result},
	} {
		if !bytes.Equal(c.got, stored) {
			t.Errorf("%s result differs from the stored bytes:\n got: %s\nwant: %s", c.name, c.got, stored)
		}
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{"server_cache_peer_lookups 2", "server_cache_peer_hits 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// httpJob sends one job request (a submit when body is non-nil) and decodes
// the answer; JobInfo.Result keeps the bytes exactly as they arrived.
func httpJob(t *testing.T, method, url string, body any) api.JobInfo {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, b)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
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

// TestEventsFinalLineCarriesJob: the final line of the HTTP events stream
// carries the job's terminal status, and its result is byte-identical to
// what GET /v1/jobs/{id} answers, for a capped and a sampled job of
// testdata/results.golden; no other line carries a job.
func TestEventsFinalLineCarriesJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 5000})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, spec := range []api.JobSpec{cappedSpec("548.exchange2_r", "specmpk"), sampledSpec("specmpk")} {
		info := httpJob(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var final *api.JobInfo
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var ev api.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			if ev.Job != nil && !ev.Final {
				t.Fatalf("event %d carries a job but is not final", ev.Seq)
			}
			if ev.Final {
				final = ev.Job
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if final == nil || final.ID != info.ID || final.State != api.StateDone {
			t.Fatalf("final line's job %+v, want job %s done", final, info.ID)
		}
		status := httpJob(t, http.MethodGet, ts.URL+"/v1/jobs/"+info.ID, nil)
		if len(status.Result) == 0 || !bytes.Equal(final.Result, status.Result) {
			t.Fatalf("final line's result differs from the status read's:\n got: %s\nwant: %s", final.Result, status.Result)
		}
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// spinAsm never halts; jobs built on it end at their cycle budget (or by
// cancellation), which keeps tests fast and deterministic.
const spinAsm = `
main:
    addi t0, t0, 1
    jmp main
`

const haltAsm = `
main:
    movi t0, 3
loop:
    addi t0, t0, -1
    bne t0, zero, loop
    halt
`

// spinSpec returns a spec that runs for exactly maxCycles cycles. Perturbing
// the immediate makes distinct specs (distinct cache keys).
func spinSpec(maxCycles uint64) api.JobSpec {
	return api.JobSpec{Asm: spinAsm, MaxCycles: maxCycles}
}

func uniqueSpec(i int, maxCycles uint64) api.JobSpec {
	src := fmt.Sprintf("main:\n    addi t0, t0, %d\n    jmp main\n", i+1)
	return api.JobSpec{Asm: src, MaxCycles: maxCycles}
}

func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// waitJob blocks until the job reaches a terminal state and returns its
// final info.
func waitJob(t *testing.T, s *Server, id string) api.JobInfo {
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
				if !ok {
					t.Fatalf("job %s vanished", id)
				}
				if !api.Terminal(info.State) {
					t.Fatalf("job %s stream closed in state %s", id, info.State)
				}
				return info
			}
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

func TestJobCompletesWithResult(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	info, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	var res api.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "halt" {
		t.Fatalf("stop reason %q, want halt", res.StopReason)
	}
	if res.Version != api.Version || res.Key != info.Key {
		t.Fatalf("result identity %q/%q", res.Version, res.Key)
	}
	if res.Stats.Insts == 0 || len(res.Metrics) == 0 {
		t.Fatal("result missing stats/metrics")
	}
}

func TestBudgetedJobIsDoneWithCycleLimit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	info, err := s.Submit(spinSpec(5000))
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("state %s, want done (budget is a timeout, not a failure)", final.State)
	}
	var res api.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "cycle_limit" {
		t.Fatalf("stop reason %q, want cycle_limit", res.StopReason)
	}
	if res.Stats.Cycles != 5000 {
		t.Fatalf("ran %d cycles, want exactly the 5000-cycle budget", res.Stats.Cycles)
	}
}

// TestDeterminismWithoutCache is the determinism half of the cache contract:
// with caching disabled, re-running an identical spec must still produce
// bit-identical result bytes.
func TestDeterminismWithoutCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CacheEntries: -1, EventInterval: 1000})
	spec := spinSpec(20_000)
	var results [][]byte
	for i := 0; i < 2; i++ {
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, s, info.ID)
		if final.Cached {
			t.Fatal("cache disabled but job reported cached")
		}
		if final.State != api.StateDone {
			t.Fatalf("state %s", final.State)
		}
		results = append(results, final.Result)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("identical specs produced different result bytes")
	}
}

// TestCacheHitBitIdentical is the caching half: the second identical submit
// resolves from the cache, without running, with byte-identical results.
func TestCacheHitBitIdentical(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	spec := spinSpec(20_000)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	finalFirst := waitJob(t, s, first.ID)

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical resubmit missed the cache")
	}
	if second.State != api.StateDone {
		t.Fatalf("cached job state %s, want done immediately", second.State)
	}
	if !bytes.Equal(finalFirst.Result, second.Result) {
		t.Fatal("cached result is not byte-identical")
	}
	if hits := s.cache.hits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestSingleFlightDedup: identical specs submitted while the first is still
// in flight attach to one execution and share its result.
func TestSingleFlightDedup(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 16, EventInterval: 1000})
	// Occupy the lone worker so the deduped pair stays queued together.
	blocker, err := s.Submit(uniqueSpec(1000, 200_000))
	if err != nil {
		t.Fatal(err)
	}
	spec := spinSpec(10_000)
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Deduped || !b.Deduped {
		t.Fatalf("dedup flags: a=%v b=%v, want false/true", a.Deduped, b.Deduped)
	}
	fa := waitJob(t, s, a.ID)
	fb := waitJob(t, s, b.ID)
	if !bytes.Equal(fa.Result, fb.Result) || len(fa.Result) == 0 {
		t.Fatal("deduped jobs disagree on the result")
	}
	if got := s.jobsDone.Load(); got > 2 { // blocker may still be running
		t.Fatalf("executions done = %d, want <= 2 (single flight)", got)
	}
	waitJob(t, s, blocker.ID)
}

// TestConcurrentSubmitters hammers one server with 64 concurrent clients
// mixing duplicate and distinct specs — the race-detector workout the issue
// requires.
func TestConcurrentSubmitters(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4, QueueSize: 256, EventInterval: 1000})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			// 16 distinct specs, each submitted 4 times: exercises the
			// cache, the single-flight path, and plain queueing at once.
			spec := uniqueSpec(i%16, 5_000)
			info, err := s.Submit(spec)
			if err != nil {
				errs[i] = err
				return
			}
			final := waitJob(t, s, info.ID)
			if final.State != api.StateDone {
				errs[i] = fmt.Errorf("job %s: state %s (%s)", info.ID, final.State, final.Error)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	// All 64 jobs resolved through at most 16 real executions.
	if done := s.jobsDone.Load(); done > 16 {
		t.Fatalf("executions done = %d, want <= 16", done)
	}
}

// TestCancelRunningJob cancels mid-run and checks the pool stays
// serviceable afterwards.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000})
	info, err := s.Submit(spinSpec(1 << 40)) // effectively unbounded
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually on the worker.
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
		t.Fatal("cancel: unknown job")
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	// The pool must still service new work.
	next, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, s, next.ID); got.State != api.StateDone {
		t.Fatalf("post-cancel job state %s, want done", got.State)
	}
}

func TestCancelQueuedJobResolvesImmediately(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 16, EventInterval: 10_000})
	blocker, err := s.Submit(spinSpec(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(uniqueSpec(7, 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.Cancel(queued.ID)
	if !ok || info.State != api.StateCancelled {
		t.Fatalf("queued cancel: ok=%v state=%s", ok, info.State)
	}
	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatal("cancel blocker")
	}
	waitJob(t, s, blocker.ID)
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueSize: 1, EventInterval: 10_000})
	var ids []string
	defer func() {
		for _, id := range ids {
			s.Cancel(id)
		}
	}()
	// One job occupies the worker, one fills the queue slot; well before 8
	// distinct long-running submits, one must bounce with ErrUnavailable.
	rejected := false
	for i := 0; i < 8; i++ {
		info, err := s.Submit(uniqueSpec(i, 1<<40))
		if err != nil {
			var unavail ErrUnavailable
			if !errors.As(err, &unavail) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			rejected = true
			break
		}
		ids = append(ids, info.ID)
	}
	if !rejected {
		t.Fatal("queue of size 1 accepted 8 long jobs")
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	s := New(Options{Workers: 2, EventInterval: 1000})
	var infos []api.JobInfo
	for i := 0; i < 4; i++ {
		info, err := s.Submit(uniqueSpec(i, 50_000))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, info := range infos {
		final, ok := s.Job(info.ID)
		if !ok {
			t.Fatalf("job %s vanished", info.ID)
		}
		if final.State != api.StateDone {
			t.Fatalf("job %s drained into state %s, want done", info.ID, final.State)
		}
	}
	if _, err := s.Submit(spinSpec(1000)); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s := New(Options{Workers: 1, EventInterval: 10_000})
	info, err := s.Submit(spinSpec(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	final, _ := s.Job(info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("straggler state %s, want cancelled", final.State)
	}
}

// ---------------------------------------------------------------------------
// HTTP layer

func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func(body string) api.JobInfo {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var info api.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	body := `{"asm": "main:\n movi t0, 2\n halt\n"}`
	info := submit(body)

	// Stream events until the final one.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events content type %q", got)
	}
	sc := bufio.NewScanner(resp.Body)
	sawFinal := false
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.Final {
			sawFinal = true
			if ev.State != api.StateDone {
				t.Fatalf("final event state %s", ev.State)
			}
		}
	}
	if !sawFinal {
		t.Fatal("event stream ended without a final event")
	}

	// Status now carries the result.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var final api.JobInfo
	if err := json.NewDecoder(jr.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone || len(final.Result) == 0 {
		t.Fatalf("final job %+v", final)
	}

	// Identical resubmit: cache hit, bit-identical result.
	again := submit(body)
	if !again.Cached || !bytes.Equal(again.Result, final.Result) {
		t.Fatalf("resubmit cached=%v identical=%v", again.Cached, bytes.Equal(again.Result, final.Result))
	}

	// Metrics include the server namespace and the cache hit.
	mr, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{"server_jobs_done 1", "server_cache_hits 1", "server_queue_capacity", "server_workers"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The job-lifecycle latency histograms are registered and populated: one
	// simulated execution, two submits probing the cache, two end-to-end
	// jobs (the run plus its cache hit).
	for _, want := range []string{
		"# TYPE server_latency_e2e_ms histogram",
		"server_latency_queue_wait_ms_count 1",
		"server_latency_simulate_ms_count 1",
		"server_latency_cache_lookup_ms_count 2",
		"server_latency_e2e_ms_count 2",
		`server_latency_e2e_ms_bucket{le="+Inf"} 2`,
		"server_latency_dedup_wait_ms_count 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("latency metrics missing %q:\n%s", want, metrics)
		}
	}

	// The finished job surfaces its lifecycle timestamps and latencies.
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("done job missing timestamps: %+v", final)
	}
	if final.FinishedAt.Before(*final.StartedAt) || final.WallMS < 0 || final.QueueWaitMS < 0 {
		t.Fatalf("inconsistent lifecycle latencies: %+v", final)
	}

	// Healthz reports daemon diagnostics as JSON.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hz api.Healthz
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if hz.Status != "ok" || hz.Version != api.Version || hz.Workers != 2 {
		t.Fatalf("healthz payload %+v", hz)
	}
	if hz.UptimeMS < 0 || hz.StartedAt.IsZero() {
		t.Fatalf("healthz uptime fields %+v", hz)
	}
	if hz.QueueDepth != 0 || hz.JobsInFlight != 0 {
		t.Fatalf("idle healthz load figures %+v", hz)
	}

	// Unknown jobs 404; malformed specs 400.
	nf, _ := http.Get(ts.URL + "/v1/jobs/nope")
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", nf.StatusCode)
	}
	nf.Body.Close()
	bad, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"no-such"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d", bad.StatusCode)
	}
}

// TestHTTPRejectsOversizedConfig: a machine config beyond the pipeline's
// size bounds is refused at admission with a 400, before any worker could
// allocate it.
func TestHTTPRejectsOversizedConfig(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, set := range []func(*pipeline.Config){
		func(c *pipeline.Config) { c.ALSize = 1 << 40 },
		func(c *pipeline.Config) { c.PRFSize = 1 << 40 },
		func(c *pipeline.Config) { c.Caches.L3.SizeB = 1 << 40 },
	} {
		cfg := pipeline.DefaultConfig()
		set(&cfg)
		body, err := json.Marshal(api.JobSpec{Workload: "548.exchange2_r", Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized config: status %d, want 400", resp.StatusCode)
		}
	}
	if n := s.accepted.Load(); n != 0 {
		t.Fatalf("%d oversized jobs accepted", n)
	}
	if n := s.jobsDone.Load() + s.jobsFailed.Load(); n != 0 {
		t.Fatalf("%d workers ran an oversized config", n)
	}
}

// TestHTTPRejectsOversizedSampling: sampled parameters above their bounds
// are refused at admission with a 400. The warm-up depth sits one past its
// bound, so a server without the bound queues the job (and fails the
// assertion) rather than exhausting memory.
func TestHTTPRejectsOversizedSampling(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, err := json.Marshal(api.JobSpec{Workload: "548.exchange2_r", Fidelity: api.FidelitySampled,
		Sampled: &api.SampledParams{WarmInsts: api.MaxSampledWarmInsts + 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized warmInsts: status %d, want 400", resp.StatusCode)
	}
	if n := s.accepted.Load(); n != 0 {
		t.Fatalf("%d oversized sampled jobs queued", n)
	}
}

// TestHTTPRejectsOversizedBody: a submission body past maxSubmitBytes gets a
// 413 with the usual error body, even when the spec inside it is valid, and
// nothing is queued.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec, err := json.Marshal(api.JobSpec{Workload: "548.exchange2_r"})
	if err != nil {
		t.Fatal(err)
	}
	body := append(bytes.Repeat([]byte(" "), maxSubmitBytes), spec...)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded spec: status %d, want 413", resp.StatusCode)
	}
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body: error %q, decode err %v", e.Error, err)
	}
	if n := s.accepted.Load(); n != 0 {
		t.Fatalf("%d oversized submissions queued", n)
	}
}

func TestHTTPCancel(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(spinSpec(1 << 40))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dr.StatusCode)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
}

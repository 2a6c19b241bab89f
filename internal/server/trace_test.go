package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// tracedTestServer is newTestServer with the flight recorder armed.
func tracedTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.SpanBuffer == 0 {
		opt.SpanBuffer = 1024
	}
	return newTestServer(t, opt)
}

// submitHTTP posts a spec through the full middleware chain with an optional
// traceparent header, returning the accepted JobInfo.
func submitHTTP(t *testing.T, ts *httptest.Server, spec api.JobSpec, traceparent string) api.JobInfo {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var info api.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// fetchSpans queries /v1/debug/spans with the given raw query.
func fetchSpans(t *testing.T, ts *httptest.Server, query string) (int, uint64, []otrace.SpanData) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/spans" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Count   int               `json:"count"`
		Dropped uint64            `json:"dropped"`
		Spans   []otrace.SpanData `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Count, out.Dropped, out.Spans
}

func spanNames(spans []otrace.SpanData) map[string]int {
	names := make(map[string]int)
	for _, sd := range spans {
		names[sd.Name]++
	}
	return names
}

func TestTraceparentRoundTripThroughHTTP(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 2, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	parent := otrace.NewRoot()
	info := submitHTTP(t, ts, api.JobSpec{Asm: haltAsm}, parent.Traceparent())
	if info.TraceID != parent.Trace.String() {
		t.Fatalf("daemon did not join the propagated trace: got %q, want %q",
			info.TraceID, parent.Trace.String())
	}
	waitJob(t, s, info.ID)

	_, _, spans := fetchSpans(t, ts, "?trace="+info.TraceID)
	names := spanNames(spans)
	for _, want := range []string{"job", "cache.lookup", "queue.wait", "simulate", "marshal"} {
		if names[want] != 1 {
			t.Fatalf("trace %s: span %q appears %d times, want 1 (have %v)",
				info.TraceID, want, names[want], names)
		}
	}
	// The job root's parent is the client's propagated span; stage spans
	// parent onto the job root.
	var root otrace.SpanData
	for _, sd := range spans {
		if sd.Name == "job" {
			root = sd
		}
	}
	if root.ParentID != parent.Span.String() {
		t.Fatalf("job root parentID = %q, want the client span %q", root.ParentID, parent.Span.String())
	}
	if root.Attrs["job_id"] != info.ID || root.Attrs["state"] != api.StateDone {
		t.Fatalf("job root attrs wrong: %+v", root.Attrs)
	}
	for _, sd := range spans {
		if sd.Name == "cache.lookup" || sd.Name == "queue.wait" {
			if sd.ParentID != root.SpanID {
				t.Fatalf("%s parentID = %q, want job root %q", sd.Name, sd.ParentID, root.SpanID)
			}
		}
	}
}

func TestMalformedTraceparentFallsBackToFreshRoot(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	info := submitHTTP(t, ts, api.JobSpec{Asm: haltAsm}, "00-bogus-nope-01")
	if info.TraceID == "" {
		t.Fatal("armed daemon minted no trace for a malformed traceparent")
	}
	if strings.Contains(info.TraceID, "bogus") || len(info.TraceID) != 32 {
		t.Fatalf("trace %q is not a fresh 16-byte root", info.TraceID)
	}
	waitJob(t, s, info.ID)
	if _, _, spans := fetchSpans(t, ts, "?trace="+info.TraceID); len(spans) == 0 {
		t.Fatal("fresh-root trace left no spans")
	}
}

func TestSpanDurationsAgreeWithHistograms(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000})
	info, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	// Span durations and histogram observations derive from one measured
	// duration per stage, so for a single job they agree exactly.
	sums := map[string]float64{}
	for _, sd := range s.SpanRecorder().Spans() {
		sums[sd.Name] += sd.DurMS
	}
	for _, tc := range []struct {
		span string
		h    interface {
			Count() uint64
			Sum() float64
		}
	}{
		{"queue.wait", s.lat.queueWait},
		{"simulate", s.lat.simulate},
		{"cache.lookup", s.lat.cacheLookup},
		{"job", s.lat.e2e},
	} {
		if tc.h.Count() != 1 {
			t.Fatalf("%s histogram count = %d, want 1", tc.span, tc.h.Count())
		}
		if got, want := sums[tc.span], tc.h.Sum(); got != want {
			t.Fatalf("%s span duration %v != histogram sum %v", tc.span, got, want)
		}
	}
}

func TestCacheHitAndDedupSpans(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000})

	// Cache hit: run once, resubmit, assert the hit trace shape.
	spec := api.JobSpec{Asm: haltAsm}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, first.ID)
	hit, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second identical submit missed the cache")
	}
	hitSpans := otrace.FilterSpans(s.SpanRecorder().Spans(), hit.TraceID, "")
	names := spanNames(hitSpans)
	if names["job"] != 1 || names["cache.lookup"] != 1 || names["queue.wait"] != 0 || names["simulate"] != 0 {
		t.Fatalf("cache-hit trace shape wrong: %v", names)
	}
	for _, sd := range hitSpans {
		switch sd.Name {
		case "job":
			if sd.Attrs["cache"] != "hit" {
				t.Fatalf("hit job span cache attr = %v", sd.Attrs["cache"])
			}
		case "cache.lookup":
			if sd.Attrs["hit"] != true {
				t.Fatalf("cache.lookup hit attr = %v", sd.Attrs["hit"])
			}
		}
	}

	// Dedup: a long spin job plus an identical attach; the deduped job's
	// trace gets a dedup.wait span and a primary_trace link.
	slow := spinSpec(3_000_000)
	primary, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	attached, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !attached.Deduped {
		t.Fatal("identical in-flight submit did not dedup")
	}
	waitJob(t, s, attached.ID)
	dedupSpans := otrace.FilterSpans(s.SpanRecorder().Spans(), attached.TraceID, "")
	names = spanNames(dedupSpans)
	if names["job"] != 1 || names["dedup.wait"] != 1 {
		t.Fatalf("deduped trace shape wrong: %v", names)
	}
	for _, sd := range dedupSpans {
		if sd.Name == "job" {
			if sd.Attrs["deduped"] != true {
				t.Fatalf("deduped job span attrs: %+v", sd.Attrs)
			}
			if sd.Attrs["primary_trace"] != primary.TraceID {
				t.Fatalf("primary_trace = %v, want %s", sd.Attrs["primary_trace"], primary.TraceID)
			}
		}
	}
	// The execution-stage spans live in the primary job's trace.
	primSpans := otrace.FilterSpans(s.SpanRecorder().Spans(), primary.TraceID, "")
	if n := spanNames(primSpans); n["simulate"] != 1 || n["queue.wait"] != 1 {
		t.Fatalf("primary trace missing stage spans: %v", n)
	}
}

func TestDebugSpansEndpointFiltersAndChrome(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 2, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	a := submitHTTP(t, ts, uniqueSpec(1, 20_000), "")
	b := submitHTTP(t, ts, uniqueSpec(2, 20_000), "")
	waitJob(t, s, a.ID)
	waitJob(t, s, b.ID)

	count, _, all := fetchSpans(t, ts, "")
	if count != len(all) || count == 0 {
		t.Fatalf("unfiltered dump: count=%d len=%d", count, len(all))
	}
	_, _, byTrace := fetchSpans(t, ts, "?trace="+a.TraceID)
	for _, sd := range byTrace {
		if sd.TraceID != a.TraceID {
			t.Fatalf("?trace leaked span from trace %s", sd.TraceID)
		}
	}
	_, _, byJob := fetchSpans(t, ts, "?job="+b.ID)
	if len(byJob) == 0 {
		t.Fatal("?job matched nothing")
	}
	for _, sd := range byJob {
		if sd.TraceID != b.TraceID {
			t.Fatalf("?job=%s leaked trace %s (want %s)", b.ID, sd.TraceID, b.TraceID)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/spans?format=chrome&trace=" + a.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != len(byTrace) {
		t.Fatalf("chrome export has %d complete events, want %d", complete, len(byTrace))
	}
}

func TestDisarmedTracingCostsNothingVisible(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000}) // SpanBuffer 0
	ts := httptest.NewServer(s)
	defer ts.Close()

	info := submitHTTP(t, ts, api.JobSpec{Asm: haltAsm}, "")
	if info.TraceID != "" {
		t.Fatalf("disarmed daemon minted trace %q", info.TraceID)
	}
	waitJob(t, s, info.ID)
	if rec := s.SpanRecorder(); rec != nil {
		t.Fatal("disarmed server holds a recorder")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/debug/spans on a disarmed daemon: HTTP %d, want 404", resp.StatusCode)
	}

	// A propagated trace ID is still echoed for cross-node correlation.
	parent := otrace.NewRoot()
	echoed := submitHTTP(t, ts, uniqueSpec(7, 10_000), parent.Traceparent())
	if echoed.TraceID != parent.Trace.String() {
		t.Fatalf("disarmed daemon did not echo the propagated trace: %q", echoed.TraceID)
	}
}

func TestChaosFailedJobsResolveInFlightRecorder(t *testing.T) {
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.worker.simulate", Action: faults.ActionError, Message: "chaos-sim"},
	}})
	s := tracedTestServer(t, Options{Workers: 2, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const jobs = 5
	infos := make([]api.JobInfo, jobs)
	for i := range infos {
		infos[i] = submitHTTP(t, ts, uniqueSpec(i, 50_000), "")
	}
	for i := range infos {
		final := waitJob(t, s, infos[i].ID)
		if final.State != api.StateFailed {
			t.Fatalf("job %s ended %s under a 100%% simulate fault", infos[i].ID, final.State)
		}
	}
	faults.Disarm()

	// Every failed job's trace must resolve in the flight recorder, carrying
	// an error-status job span and a fault_injected event on its simulate span.
	for _, info := range infos {
		_, _, spans := fetchSpans(t, ts, "?trace="+info.TraceID)
		if len(spans) == 0 {
			t.Fatalf("failed job %s left no spans under trace %s", info.ID, info.TraceID)
		}
		var faulted, errStatus bool
		for _, sd := range spans {
			if sd.Name == "simulate" {
				for _, ev := range sd.Events {
					if ev.Name == "fault_injected" && ev.Attrs["point"] == "server.worker.simulate" {
						faulted = true
					}
				}
			}
			if sd.Name == "job" && sd.Status == "error" {
				errStatus = true
			}
		}
		if !faulted {
			t.Fatalf("job %s: no fault_injected event on its simulate span", info.ID)
		}
		if !errStatus {
			t.Fatalf("job %s: job span not marked error", info.ID)
		}
	}
}

func TestSpanGaugesInMetrics(t *testing.T) {
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000})
	info, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, info.ID)
	var buf bytes.Buffer
	if err := s.Registry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "server_spans_resident") {
		t.Fatal("metrics missing server_spans_resident")
	}
	if strings.Contains(text, "server_spans_resident 0\n") {
		t.Fatal("spans gauge reads 0 after a traced job")
	}
}

func TestTraceAcrossRetirementIsStable(t *testing.T) {
	// The trace attributes written by the worker (stop_reason, cache) must
	// land on the job span even when jobs race retirement; run a burst.
	s := tracedTestServer(t, Options{Workers: 4, EventInterval: 1000, SpanBuffer: 4096})
	ids := make([]string, 8)
	for i := range ids {
		info, err := s.Submit(uniqueSpec(i, 30_000))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	for _, id := range ids {
		if final := waitJob(t, s, id); final.State != api.StateDone {
			t.Fatalf("job %s: %s", id, final.Error)
		}
	}
	var jobSpans int
	for _, sd := range s.SpanRecorder().Spans() {
		if sd.Name != "job" {
			continue
		}
		jobSpans++
		if sd.Attrs["stop_reason"] != "cycle_limit" {
			t.Fatalf("job span stop_reason = %v, want cycle_limit (attrs %+v)", sd.Attrs["stop_reason"], sd.Attrs)
		}
		if c := sd.Attrs["cache"]; c != "filled" {
			t.Fatalf("job span cache disposition = %v, want filled", c)
		}
	}
	if jobSpans != len(ids) {
		t.Fatalf("recorded %d job spans, want %d", jobSpans, len(ids))
	}
}

// TestTerminalEventFollowsBookkeeping: a reader woken by a job's terminal
// event must find the job already counted. Many lanes each submit unique
// jobs and wait for the event stream to close; by then the done counter and
// the e2e histogram must include every job any lane has seen finish, and the
// job's own span must be ended with the published state.
func TestTerminalEventFollowsBookkeeping(t *testing.T) {
	const lanes, perLane = 8, 25
	s := tracedTestServer(t, Options{Workers: 2, EventInterval: 1000, SpanBuffer: 4096})
	var seen atomic.Uint64 // jobs whose stream some lane has seen close
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				if err := submitAndCheck(s, uniqueSpec(lane*perLane+i, 2_000), &seen); err != nil {
					errs <- err
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// submitAndCheck runs one lane step of TestTerminalEventFollowsBookkeeping.
func submitAndCheck(s *Server, spec api.JobSpec, seen *atomic.Uint64) error {
	info, err := s.Submit(spec)
	if err != nil {
		return err
	}
	ch, cancel, ok := s.Subscribe(info.ID)
	if !ok {
		return fmt.Errorf("unknown job %s", info.ID)
	}
	defer cancel()
	deadline := time.After(60 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			return fmt.Errorf("job %s did not finish", info.ID)
		}
	}
	n := seen.Add(1)
	if done := s.jobsDone.Load(); done < n {
		return fmt.Errorf("job %s: stream closed with server.jobs.done = %d, want >= %d", info.ID, done, n)
	}
	if c := s.lat.e2e.Count(); c < n {
		return fmt.Errorf("job %s: stream closed with e2e histogram count = %d, want >= %d", info.ID, c, n)
	}
	var ended []otrace.SpanData
	for _, sd := range otrace.FilterSpans(s.SpanRecorder().Spans(), info.TraceID, "") {
		if sd.Name == "job" {
			ended = append(ended, sd)
		}
	}
	if len(ended) != 1 || ended[0].Attrs["state"] != api.StateDone {
		return fmt.Errorf("job %s: stream closed with ended job spans %+v, want one in state done", info.ID, ended)
	}
	return nil
}

func TestAccessLogAndJobLogCarryTraceID(t *testing.T) {
	var buf syncBuffer
	logger := newDebugLogger(&buf)
	s := tracedTestServer(t, Options{Workers: 1, EventInterval: 1000, Logger: logger})
	ts := httptest.NewServer(s)
	defer ts.Close()

	parent := otrace.NewRoot()
	info := submitHTTP(t, ts, api.JobSpec{Asm: haltAsm}, parent.Traceparent())
	waitJob(t, s, info.ID)
	// The job-finished line is logged under s.mu after retirement; submit a
	// status read to flush ordering and then inspect.
	if _, ok := s.Job(info.ID); !ok {
		t.Fatal("job vanished")
	}
	logs := buf.String()
	if !strings.Contains(logs, "http request") || !strings.Contains(logs, "trace_id="+info.TraceID) {
		t.Fatalf("logs missing access line with trace_id:\n%s", logs)
	}
	if !strings.Contains(logs, "job finished") || !strings.Contains(logs, "job_id="+info.ID) {
		t.Fatalf("logs missing job-finished line with job_id:\n%s", logs)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the server logs from worker
// goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newDebugLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
)

func testDaemon(t *testing.T, opt server.Options) *client.Client {
	t.Helper()
	s := server.New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return client.New(ts.URL)
}

const haltAsm = "main:\n movi t0, 2\n halt\n"

func TestRunRoundTrip(t *testing.T) {
	c := testDaemon(t, server.Options{Workers: 2, EventInterval: 1000})
	ctx := context.Background()

	res, info, err := c.Run(ctx, api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("first run reported cached")
	}
	if res.StopReason != "halt" || res.Stats.Insts == 0 {
		t.Fatalf("result %+v", res)
	}

	// Second run: cache hit, identical result payload.
	res2, info2, err := c.Run(ctx, api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatal("identical rerun missed the cache")
	}
	b1, _ := json.Marshal(res)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Fatal("cached result differs")
	}
}

func TestEventsCarryProgress(t *testing.T) {
	c := testDaemon(t, server.Options{Workers: 1, EventInterval: 1000})
	ctx := context.Background()
	spin := api.JobSpec{Asm: "main:\n addi t0, t0, 1\n jmp main\n", MaxCycles: 10_000}
	info, err := c.Submit(ctx, spin)
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var final *api.Event
	err = c.Events(ctx, info.ID, func(ev api.Event) error {
		if ev.Final {
			final = &ev
		} else if ev.State == "" {
			progress++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != api.StateDone {
		t.Fatalf("final event %+v", final)
	}
	if progress == 0 {
		t.Fatal("no interval progress events for a 10k-cycle job at 1k cadence")
	}
	if final.Cycle != 10_000 {
		t.Fatalf("final event at cycle %d, want 10000", final.Cycle)
	}
}

func TestCancelViaClient(t *testing.T) {
	c := testDaemon(t, server.Options{Workers: 1, EventInterval: 10_000})
	ctx := context.Background()
	spin := api.JobSpec{Asm: "main:\n addi t0, t0, 1\n jmp main\n", MaxCycles: 1 << 40}
	info, err := c.Submit(ctx, spin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	// The pool must still service new work through the same client.
	if _, _, err := c.Run(ctx, api.JobSpec{Asm: haltAsm}); err != nil {
		t.Fatalf("post-cancel run: %v", err)
	}
}

func TestErrorsAreTyped(t *testing.T) {
	c := testDaemon(t, server.Options{Workers: 1})
	ctx := context.Background()

	if _, err := c.Job(ctx, "nope"); err == nil {
		t.Fatal("unknown job id succeeded")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 404 {
			t.Fatalf("error %v, want 404 APIError", err)
		}
	}
	if _, err := c.Submit(ctx, api.JobSpec{Workload: "no-such"}); err == nil {
		t.Fatal("bad spec accepted")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Unavailable() {
			t.Fatalf("error %v, want 400 APIError", err)
		}
	}

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "server_jobs_accepted") {
		t.Fatalf("metrics missing server namespace:\n%s", m)
	}
}

// countingDaemon serves a fresh daemon through a handler that records each
// request, and returns a client whose transport counts the TCP connections
// it dials.
func countingDaemon(t *testing.T) (c *client.Client, requests func() []string, dials *atomic.Int32) {
	t.Helper()
	s := server.New(server.Options{Workers: 1, EventInterval: 1000})
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	dials = new(atomic.Int32)
	c = client.New(ts.URL)
	client.SetTransport(c, &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}})
	requests = func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
	return c, requests, dials
}

// spinSpec is the i-th distinct cold job: a spin loop capped at 20k cycles.
func spinSpec(i int) api.JobSpec {
	return api.JobSpec{Asm: fmt.Sprintf("main:\n    addi t0, t0, %d\n    jmp main\n", i+1), MaxCycles: 20_000}
}

// TestWaitIsOneStreamOverOneConnection: a cold job costs a submit and one
// event stream, whose final line carries the job, and the stream is read to
// its end, so every request of many jobs in a row reuses one TCP connection.
func TestWaitIsOneStreamOverOneConnection(t *testing.T) {
	c, requests, dials := countingDaemon(t)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		info, err := c.Submit(ctx, spinSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.ID != info.ID || final.State != api.StateDone || len(final.Result) == 0 {
			t.Fatalf("job %d: Wait returned %+v, want job %s done with its result", i, final, info.ID)
		}
		want := []string{"POST /v1/jobs", "GET /v1/jobs/" + info.ID + "/events"}
		if got := requests(); !slices.Equal(got, want) {
			t.Fatalf("job %d: requests %v, want %v", i, got, want)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d TCP connections dialled for 20 submit+wait pairs, want 1", got)
	}
}

// TestWaitFallsBackWhenTheStreamIsCut: a stream that ends without the
// final line (here cut by the server.events.stream fault point before its
// first line) still ends the wait with the job, through one status read.
func TestWaitFallsBackWhenTheStreamIsCut(t *testing.T) {
	c, requests, _ := countingDaemon(t)
	ctx := context.Background()
	info, err := c.Submit(ctx, spinSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	for !api.Terminal(info.State) {
		time.Sleep(time.Millisecond)
		if info, err = c.Job(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := faults.Arm(faults.Plan{Rules: []faults.Rule{{Point: "server.events.stream", Times: 1, Message: "cut"}}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	requests()
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone || !bytes.Equal(final.Result, info.Result) {
		t.Fatalf("Wait returned %+v, want the done job with its result", final)
	}
	want := []string{"GET /v1/jobs/" + info.ID + "/events", "GET /v1/jobs/" + info.ID}
	if got := requests(); !slices.Equal(got, want) {
		t.Fatalf("requests %v, want %v", got, want)
	}
}

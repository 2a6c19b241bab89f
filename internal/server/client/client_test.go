package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

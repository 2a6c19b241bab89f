package server

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
)

// TestRunReturnsStoredResult: Run's result is the done job's stored bytes,
// decoded — for a fresh run and for a store hit alike.
func TestRunReturnsStoredResult(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	for _, wantCached := range []bool{false, true} {
		res, info, err := s.Run(context.Background(), api.JobSpec{Asm: haltAsm})
		if err != nil {
			t.Fatal(err)
		}
		if info.State != api.StateDone || info.Cached != wantCached {
			t.Fatalf("info state %s cached %v, want done cached %v", info.State, info.Cached, wantCached)
		}
		stored, ok := s.Job(info.ID)
		if !ok {
			t.Fatalf("job %s unknown", info.ID)
		}
		var want api.Result
		if err := json.Unmarshal(stored.Result, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("Run result differs from the stored result:\n got %+v\nwant %+v", res, want)
		}
		if res.StopReason != "halt" || res.Key != info.Key {
			t.Fatalf("result stop %q key %q", res.StopReason, res.Key)
		}
	}
}

// TestRunReportsTerminalFailures: a failed job and a rejected spec come back
// as the errors client.Run would return for them, which the client's retry
// classification treats as terminal — a sweep must not re-run either.
func TestRunReportsTerminalFailures(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})

	// A wall-clock deadline fails the job.
	_, info, err := s.Run(context.Background(), api.JobSpec{Asm: spinAsm, MaxCycles: 1 << 40, MaxWallMS: 20})
	var jobErr *client.JobError
	if !errors.As(err, &jobErr) || jobErr.Info.State != api.StateFailed || info.State != api.StateFailed {
		t.Fatalf("failed job: err %v, info state %s; want a *client.JobError in state failed", err, info.State)
	}
	if client.IsTransient(err) {
		t.Fatalf("failed job classified transient: %v", err)
	}

	_, _, err = s.Run(context.Background(), api.JobSpec{Workload: "no-such-workload"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("rejected spec: err %v, want a 400 *client.APIError", err)
	}
	if client.IsTransient(err) {
		t.Fatalf("rejected spec classified transient: %v", err)
	}
}

// TestRunCancelsJobWhenContextEnds: a caller that stops waiting cancels the
// job, as a client's DELETE would, and gets its context's error back.
func TestRunCancelsJobWhenContextEnds(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, info, err := s.Run(ctx, spinSpec(1<<40))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the context's deadline", err)
	}
	if final := waitJob(t, s, info.ID); final.State != api.StateCancelled {
		t.Fatalf("job state %s after its caller left, want cancelled", final.State)
	}
}

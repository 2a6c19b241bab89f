package server

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"specmpk/internal/pipeline"
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

// TestLaggingSubscriberSeesTheEnd: a subscriber that stops reading falls
// behind by more than the slack. It loses progress events but still gets
// the final one, its channel still closes, and Job and Run (which joins the
// same execution) report the terminal state. The job waits in the queue
// behind a blocker until the subscriber is attached, so none of its events
// can reach the subscriber as replay.
func TestLaggingSubscriberSeesTheEnd(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	blocker, err := s.Submit(uniqueSpec(0, 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	spec := spinSpec(200_000)
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsubscribe, ok := s.Subscribe(info.ID)
	if !ok {
		t.Fatalf("job %s unknown", info.ID)
	}
	defer unsubscribe()
	s.Cancel(blocker.ID)
	res, runInfo, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if runInfo.State != api.StateDone || res.StopReason != "cycle_limit" || res.Stats.Cycles != 200_000 {
		t.Fatalf("Run: state %s, stop %q at cycle %d; want done at the 200000-cycle budget",
			runInfo.State, res.StopReason, res.Stats.Cycles)
	}
	if final, _ := s.Job(info.ID); final.State != api.StateDone {
		t.Fatalf("Job reports state %s, want done", final.State)
	}
	var got []api.Event
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case ev, ok := <-ch:
			if open = ok; ok {
				got = append(got, ev)
			}
		case <-deadline:
			t.Fatalf("the lagging subscriber's channel never closed (%d events read)", len(got))
		}
	}
	last := got[len(got)-1]
	if !last.Final || last.State != api.StateDone {
		t.Fatalf("last event %+v, want the final done event", last)
	}
	if last.Seq <= uint64(len(got))+subscriberSlack {
		t.Fatalf("the subscriber read %d of %d events: it never fell behind by more than the slack", len(got), last.Seq)
	}
}

// TestResultBytesGolden pins the canonical result bytes a job stores and
// serves verbatim, one line per spec in testdata/results.golden: the capped
// full job of 548.exchange2_r and the sampled job of 541.leela_r under every
// policy, and one halting asm job. Identical specs must produce identical
// bytes across commits, since the cache key promises it; only a deliberate
// api.Version bump regenerates the file (-update).
func TestResultBytesGolden(t *testing.T) {
	var specs []api.JobSpec
	for _, mode := range pipeline.PolicyNames() {
		specs = append(specs, cappedSpec("548.exchange2_r", mode))
	}
	for _, mode := range pipeline.PolicyNames() {
		specs = append(specs, sampledSpec(mode))
	}
	specs = append(specs, api.JobSpec{Asm: haltAsm})

	s := newTestServer(t, Options{Workers: 2})
	var b strings.Builder
	for _, spec := range specs {
		_, info, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(info.Result)
		b.WriteByte('\n')
	}
	checkGolden(t, "results.golden", b.String())
}

package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

func TestSubmitSendsTraceparent(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("traceparent")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"j-000001","key":"k","state":"done","submittedAt":"2026-01-02T03:04:05Z"}`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	// With a span context in ctx, Submit must propagate exactly it.
	sc := otrace.NewRoot()
	if _, err := c.Submit(otrace.ContextWith(context.Background(), sc), api.JobSpec{Asm: "main:\n    halt\n"}); err != nil {
		t.Fatal(err)
	}
	if got != sc.Traceparent() {
		t.Fatalf("propagated traceparent %q, want %q", got, sc.Traceparent())
	}

	// Without one, Submit mints a fresh, well-formed root.
	if _, err := c.Submit(context.Background(), api.JobSpec{Asm: "main:\n    halt\n"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := otrace.ParseTraceparent(got); !ok {
		t.Fatalf("Submit without a context trace sent unparseable traceparent %q", got)
	}
}

// TestEventsSendsTraceparent: the event stream, like every request the
// client sends, carries the caller's trace context.
func TestEventsSendsTraceparent(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("traceparent")
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"seq":1,"state":"done","final":true}` + "\n"))
	}))
	defer ts.Close()

	sc := otrace.NewRoot()
	ctx := otrace.ContextWith(context.Background(), sc)
	if err := New(ts.URL).Events(ctx, "j-000001", func(api.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got != sc.Traceparent() {
		t.Fatalf("events request sent traceparent %q, want %q", got, sc.Traceparent())
	}
}

func TestJobErrorSurfacesTraceID(t *testing.T) {
	withTrace := &JobError{Info: api.JobInfo{
		ID: "j-000007", State: api.StateFailed, Error: "boom",
		TraceID: strings.Repeat("ab", 16),
	}}
	if msg := withTrace.Error(); !strings.Contains(msg, "trace "+strings.Repeat("ab", 16)) {
		t.Fatalf("failed-job error hides the trace ID: %q", msg)
	}
	cancelled := &JobError{Info: api.JobInfo{
		ID: "j-000008", State: api.StateCancelled, TraceID: strings.Repeat("cd", 16),
	}}
	if msg := cancelled.Error(); !strings.Contains(msg, "trace "+strings.Repeat("cd", 16)) {
		t.Fatalf("cancelled-job error hides the trace ID: %q", msg)
	}
	untraced := &JobError{Info: api.JobInfo{ID: "j-000009", State: api.StateFailed, Error: "boom"}}
	if msg := untraced.Error(); strings.Contains(msg, "trace") {
		t.Fatalf("untraced job error mentions a trace: %q", msg)
	}
}

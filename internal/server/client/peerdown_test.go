package client

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// deadAddr returns a base URL nothing listens on: bind a port, note it,
// release it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()
	return addr
}

// TestSubmitSurfacesPeerDown: every attempt against a dead daemon fails at
// the connection level, so the exhausted retry loop must return the typed
// PeerDownError — the signal a cluster coordinator keys failover on —
// rather than a bare transport error.
func TestSubmitSurfacesPeerDown(t *testing.T) {
	c := New(deadAddr(t))
	c.Retry = fastRetry
	_, err := c.Submit(context.Background(), api.JobSpec{Asm: "main:\n    halt\n"})
	if err == nil {
		t.Fatal("submit to a dead daemon succeeded")
	}
	var pd *PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("error %T (%v), want *PeerDownError", err, err)
	}
	if !IsPeerDown(err) {
		t.Error("IsPeerDown() = false for a PeerDownError")
	}
	if pd.Addr != c.Addr() {
		t.Errorf("PeerDownError.Addr = %q, want %q", pd.Addr, c.Addr())
	}
	if pd.Attempts != fastRetry.MaxAttempts {
		t.Errorf("PeerDownError.Attempts = %d, want %d", pd.Attempts, fastRetry.MaxAttempts)
	}
	if got := c.Stats().Retries; got != uint64(fastRetry.MaxAttempts-1) {
		t.Errorf("Stats().Retries = %d, want %d", got, fastRetry.MaxAttempts-1)
	}
}

// TestEventsSurfacesPeerDown: the events stream against a connection-refused
// daemon must not spin forever on instant reconnects — after the retry
// policy's worth of consecutive connection failures it returns the typed
// peer-down error.
func TestEventsSurfacesPeerDown(t *testing.T) {
	c := New(deadAddr(t))
	c.Retry = fastRetry
	err := c.Events(context.Background(), "job-1", func(api.Event) error { return nil })
	if !IsPeerDown(err) {
		t.Fatalf("Events error = %v, want a PeerDownError", err)
	}
}

// TestCancelledBackoffIsNotPeerDown: a call whose context ends during its
// first backoff made one attempt of the policy's six, so it says nothing
// about the peer. Submit and Events must return the context's error, not a
// PeerDownError a coordinator would fail over on.
func TestCancelledBackoffIsNotPeerDown(t *testing.T) {
	c := New(deadAddr(t))
	c.Retry = RetryPolicy{BaseDelay: 200 * time.Millisecond}
	calls := []struct {
		name string
		call func(context.Context) error
	}{
		{"submit", func(ctx context.Context) error {
			_, err := c.Submit(ctx, api.JobSpec{Asm: "main:\n    halt\n"})
			return err
		}},
		{"events", func(ctx context.Context) error {
			return c.Events(ctx, "job-1", func(api.Event) error { return nil })
		}},
	}
	for _, tc := range calls {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := tc.call(ctx)
		cancel()
		if IsPeerDown(err) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: error %T (%v), want the context's deadline", tc.name, err, err)
		}
	}
}

// TestHTTPErrorsAreNotPeerDown: a daemon answering 503 on every request is
// overloaded, not dead — the exhausted retries must surface the APIError,
// never a peer-down verdict (a coordinator must not fail away from a live
// node that is merely shedding load).
func TestHTTPErrorsAreNotPeerDown(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry
	_, err := c.Submit(context.Background(), api.JobSpec{Asm: "main:\n    halt\n"})
	if err == nil {
		t.Fatal("submit against a 503 wall succeeded")
	}
	if IsPeerDown(err) {
		t.Fatalf("503 responses produced a peer-down verdict: %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("error %v, want the 503 APIError", err)
	}
}

// TestClusterHeadersFromContext: WithForwarded/WithResubmit mark requests so
// the receiving daemon can prevent forwarding loops and count
// content-addressed resubmissions.
func TestClusterHeadersFromContext(t *testing.T) {
	type seen struct{ forwarded, resubmit string }
	var got seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = seen{
			forwarded: r.Header.Get(api.HeaderForwarded),
			resubmit:  r.Header.Get(api.HeaderResubmit),
		}
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry

	c.Submit(context.Background(), api.JobSpec{})
	if got.forwarded != "" || got.resubmit != "" {
		t.Errorf("plain submit carried cluster headers: %+v", got)
	}
	c.Submit(WithForwarded(context.Background()), api.JobSpec{})
	if got.forwarded == "" || got.resubmit != "" {
		t.Errorf("forwarded submit headers: %+v", got)
	}
	c.Submit(WithResubmit(context.Background()), api.JobSpec{})
	if got.forwarded != "" || got.resubmit == "" {
		t.Errorf("resubmit submit headers: %+v", got)
	}
}

// TestCachedResult: hit returns the bytes verbatim, miss is (nil, false,
// nil) — not an error, since a miss just means "simulate it".
func TestCachedResult(t *testing.T) {
	const key = "abc123"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cache/"+key {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"key":"abc123"}`))
			return
		}
		http.Error(w, `{"error":"key not cached"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	c := New(ts.URL)

	raw, ok, err := c.CachedResult(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("hit: ok=%v err=%v", ok, err)
	}
	if string(raw) != `{"key":"abc123"}` {
		t.Errorf("hit bytes %q", raw)
	}
	raw, ok, err = c.CachedResult(context.Background(), "missing")
	if err != nil || ok || raw != nil {
		t.Errorf("miss: raw=%q ok=%v err=%v, want nil/false/nil", raw, ok, err)
	}
}

// Package client is the typed Go client for the specmpkd HTTP API. It is
// what `specmpk-bench -remote` builds on: Submit/Wait/Run map one experiment
// simulation onto one daemon job, with the daemon's content-addressed cache
// and single-flight dedup collapsing repeated specs across sweep runs.
//
// The client is resilient by default: transient failures — connection
// resets, daemon restarts, 503 overload/drain responses (whose Retry-After
// is honored), truncated event streams — are retried with capped
// exponential backoff and jitter. Because job specs are content-addressed,
// every retry is idempotent: resubmitting a spec lands on the cache, an
// identical in-flight execution, or the same deterministic simulation, so
// Run can even survive the daemon being killed and restarted mid-job by
// resubmitting when the new daemon no longer knows the job id.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// Client talks to one specmpkd instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// Retry shapes the resilience layer. Set it (or leave the zero value
	// for the defaults) before the first call.
	Retry RetryPolicy

	// Resilience counters (see Stats): how often the retry layer actually
	// worked, so sweeps and chaos drills can assert recovery happened via
	// retry/resubmission rather than luck.
	retries    atomic.Uint64
	resubmits  atomic.Uint64
	reconnects atomic.Uint64
}

// Stats is a snapshot of the client's resilience counters.
type Stats struct {
	// Retries counts failed attempts that were retried by doRetry.
	Retries uint64
	// Resubmits counts whole submit+wait cycles re-run after the daemon
	// disowned a job id (restart recovery via the content-addressed key).
	Resubmits uint64
	// Reconnects counts event-stream reconnection attempts.
	Reconnects uint64
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Retries:    c.retries.Load(),
		Resubmits:  c.resubmits.Load(),
		Reconnects: c.reconnects.Load(),
	}
}

// Addr returns the daemon base URL this client talks to.
func (c *Client) Addr() string { return c.base }

// New returns a client for addr ("host:port" or a full http:// URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		// The transport-level timeout stays generous: Wait streams events
		// for the whole simulation. Per-call deadlines come from ctx.
		hc: &http.Client{},
	}
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("specmpkd: %s (HTTP %d)", e.Msg, e.Status)
}

// Unavailable reports whether the error is a 503 — queue full or draining —
// i.e. worth retrying elsewhere or later.
func (e *APIError) Unavailable() bool { return e.Status == http.StatusServiceUnavailable }

// JobError is a job that reached a terminal state other than done — failed
// (bad spec, panicking simulation, wall-clock deadline) or cancelled. It is
// never transient: the spec is deterministic, so re-running reproduces it.
type JobError struct {
	Info api.JobInfo
}

func (e *JobError) Error() string {
	// The daemon-reported trace ID rides in the message: it is the handle
	// into the daemon's flight recorder (GET /v1/debug/spans?trace=...) and
	// structured logs, so a sweep's failure report is directly actionable.
	trace := ""
	if e.Info.TraceID != "" {
		trace = fmt.Sprintf(" (trace %s)", e.Info.TraceID)
	}
	if e.Info.State == api.StateCancelled {
		return fmt.Sprintf("specmpkd: job %s cancelled%s", e.Info.ID, trace)
	}
	return fmt.Sprintf("specmpkd: job %s failed: %s%s", e.Info.ID, e.Info.Error, trace)
}

// PeerDownError is a daemon that could not be reached at all: every attempt
// the retry policy allowed failed at the connection level (dial refused,
// reset before a response). It is what lets a cluster layer — or a plain
// caller — distinguish "this peer is gone, fail over" from "this peer is
// slow or overloaded, keep waiting". The zero-cost alternative, retrying the
// same dead address until the caller's context expires, is exactly the spin
// this type exists to end.
type PeerDownError struct {
	// Addr is the unreachable daemon's base URL.
	Addr string
	// Attempts is how many connection attempts failed before giving up.
	Attempts int
	// Err is the last connection-level error.
	Err error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("specmpkd: peer %s down (%d connection attempts failed): %v", e.Addr, e.Attempts, e.Err)
}

func (e *PeerDownError) Unwrap() error { return e.Err }

// IsPeerDown reports whether err is a PeerDownError — the retry policy was
// exhausted without ever completing a request against the peer.
func IsPeerDown(err error) bool {
	var pd *PeerDownError
	return errors.As(err, &pd)
}

// isConnFailure reports whether err is a connection-level failure: the
// request never produced an HTTP response (dial refused, reset, truncated).
// HTTP-level errors — even 503s — prove the peer is alive, so they never
// count toward a peer-down verdict.
func isConnFailure(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	var jobErr *JobError
	return !errors.As(err, &apiErr) && !errors.As(err, &jobErr)
}

// IsUnknownJob reports whether err is the daemon disowning a job id (404) —
// after a restart, every pre-restart id is gone. The recovery is not to
// retry the status call but to resubmit the spec, which the
// content-addressed key makes idempotent; Run does this automatically.
func IsUnknownJob(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// IsTransient reports whether err is a failure the retry layer classifies
// as retryable — a transport error or an overload response. Batch callers
// use it to retry one job without abandoning the sweep.
func IsTransient(err error) bool {
	_, ok := transient(err)
	return ok
}

// transient classifies err for the retry layer: true for failures where a
// later identical attempt can succeed — transport errors (daemon
// restarting, connection reset) and 502/503/504 responses — along with any
// server-provided Retry-After delay. Context cancellation and every other
// API error (400 bad spec, 404 unknown job, 500 bugs) are permanent.
func transient(err error) (retryAfter time.Duration, ok bool) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var jobErr *JobError
	if errors.As(err, &jobErr) {
		return 0, false // terminal job outcome: deterministic, never retried
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
			return apiErr.RetryAfter, true
		}
		return 0, false
	}
	// Not an API response at all: the request never completed (dial, reset,
	// truncated body). Safe to retry — the whole API is idempotent.
	return 0, true
}

// ctxMarker keys the cluster-coordination context flags below.
type ctxMarker int

const (
	ctxForwarded ctxMarker = iota
	ctxResubmit
)

// WithForwarded marks every submit under ctx as already cluster-placed
// (api.HeaderForwarded): the receiving daemon simulates locally instead of
// forwarding again. Cluster coordinators set it on the requests they route.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxForwarded, true)
}

// WithResubmit marks every submit under ctx as a re-placement of a job whose
// first placement died (api.HeaderResubmit), so the receiving daemon's
// server.jobs.resubmitted counter records the recovery.
func WithResubmit(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxResubmit, true)
}

// request is the client's one way to send a request. It marshals body as
// JSON (nil sends none), sets the cross-cutting headers — the caller's
// trace context as a W3C traceparent, so the daemon joins the trace, and
// the cluster-coordination markers — and returns the response when its
// status is 2xx, for the caller to read and close. Any other status is
// read into the typed *APIError.
func (c *Client) request(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc := otrace.FromContext(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	if ctx.Value(ctxForwarded) != nil {
		req.Header.Set(api.HeaderForwarded, "1")
	}
	if ctx.Value(ctxResubmit) != nil {
		req.Header.Set(api.HeaderResubmit, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeErr(resp)
	}
	return resp, nil
}

// do sends one request and decodes its JSON answer into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.request(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	// Read the rest to EOF, so the connection goes back to the transport's
	// pool. The answer is already decoded, so a failed read costs only the
	// connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// doRetry is do wrapped in the resilience layer: transient failures are
// retried up to the policy's attempt budget with backoff (or the server's
// Retry-After), permanent ones return immediately. When every attempt failed
// at the connection level the exhausted budget surfaces as a typed
// PeerDownError, so callers (the cluster coordinator above all) can fail
// over to another peer instead of retrying a dead address. A backoff the
// context cuts short returns the context's error: the budget was not spent.
func (c *Client) doRetry(ctx context.Context, method, path string, body, out any) error {
	bo := newBackoff(c.Retry)
	attempts := c.Retry.attempts()
	var err error
	allConn := true
	for i := 0; i < attempts; i++ {
		if err = c.do(ctx, method, path, body, out); err == nil {
			return nil
		}
		allConn = allConn && isConnFailure(err)
		ra, ok := transient(err)
		if !ok || i == attempts-1 {
			break
		}
		c.retries.Add(1)
		if serr := bo.sleep(ctx, ra); serr != nil {
			return serr
		}
	}
	if allConn && err != nil {
		return &PeerDownError{Addr: c.base, Attempts: attempts, Err: err}
	}
	return err
}

func decodeErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(b, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(b))
	}
	if e.Error == "" {
		e.Error = resp.Status
	}
	apiErr := &APIError{Status: resp.StatusCode, Msg: e.Error}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		apiErr.RetryAfter = time.Duration(ra) * time.Second
	}
	return apiErr
}

// Submit enqueues a job and returns its initial status (terminal already on
// a cache hit). Transient rejections (503 queue-full/draining, transport
// errors) are retried — content addressing makes resubmission free. The
// submit carries a W3C traceparent header: the caller's span context when
// ctx holds one, otherwise a fresh root minted here, so every retry of one
// logical submission lands in the same trace and the daemon's flight
// recorder can be queried by the returned JobInfo.TraceID.
func (c *Client) Submit(ctx context.Context, spec api.JobSpec) (api.JobInfo, error) {
	if !otrace.FromContext(ctx).Valid() {
		ctx = otrace.ContextWith(ctx, otrace.NewRoot())
	}
	var info api.JobInfo
	err := c.doRetry(ctx, http.MethodPost, "/v1/jobs", spec, &info)
	return info, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// Cancel requests cancellation and returns the job's status.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.doRetry(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// maxEventLine caps one NDJSON event line. Events are about 100 bytes, so a
// stream's scanner starts at bufio's default size and grows only for a
// longer line; the cap is deliberately generous so a future fatter payload
// degrades to memory use, not a silently truncated stream (bufio.Scanner
// errors past its cap).
const maxEventLine = 8 << 20

// Events streams the job's NDJSON progress events, calling fn for each until
// the final event arrives, fn returns an error, or ctx is cancelled. A
// stream that drops mid-flight (daemon restart, proxy timeout, injected
// fault) is reconnected with backoff; the daemon replays its event buffer on
// resubscription and the client skips already-delivered sequence numbers, so
// fn sees each event once, in order, across reconnects. Events returns nil
// if the stream ends cleanly without a final event (job already terminal
// before subscribing and its buffer was replayed, or the subscription was
// detached server-side) — callers confirm terminal state via Job. A context
// that ends during a reconnection backoff returns the context's error.
//
// A peer that refuses every connection is a special case: progress resets
// the failure budget (deliberately — a long job must survive many isolated
// stream drops), but connection-level failures are counted on their own,
// unreset by replayed events, so a dead peer surfaces as a typed
// PeerDownError once the policy's attempts are exhausted instead of the
// reconnection loop spinning against it forever.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Event) error) error {
	bo := newBackoff(c.Retry)
	attempts := c.Retry.attempts()
	var lastSeq uint64
	failures := 0
	connFails := 0
	for {
		progressed, err := c.streamEvents(ctx, id, &lastSeq, fn)
		if err == nil {
			return nil // final event delivered or clean end of stream
		}
		var fe *callbackError
		if errors.As(err, &fe) {
			return fe.err // fn aborted the stream: its error, verbatim
		}
		if _, ok := transient(err); !ok {
			return err
		}
		if progressed {
			// Forward progress proves the peer is alive and serving; only a
			// working connection resets the consecutive-connection-failure
			// count, never a replayed buffer on a connection that then died.
			failures = 0
			connFails = 0
			bo.reset()
		}
		failures++
		if isConnFailure(err) {
			connFails++
			if connFails >= attempts {
				return &PeerDownError{Addr: c.base, Attempts: connFails, Err: err}
			}
		} else {
			connFails = 0
		}
		if failures >= attempts {
			return err
		}
		c.reconnects.Add(1)
		if serr := bo.sleep(ctx, 0); serr != nil {
			return serr
		}
	}
}

// callbackError tags an error returned by the caller's event callback so
// the reconnection loop surfaces it instead of retrying past it.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// streamEvents runs one events connection, delivering events newer than
// *lastSeq. It returns nil when the stream ended cleanly (final event or
// EOF) and reports whether any new event arrived on this connection. After
// the final event it reads the body to EOF — the daemon ends the stream
// right after that event — so the connection goes back to the transport's
// pool instead of being closed.
func (c *Client) streamEvents(ctx context.Context, id string, lastSeq *uint64, fn func(api.Event) error) (progressed bool, err error) {
	resp, err := c.request(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxEventLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return progressed, fmt.Errorf("specmpkd: bad event line: %w", err)
		}
		if ev.Seq <= *lastSeq {
			continue // replayed on reconnection; already delivered
		}
		*lastSeq = ev.Seq
		progressed = true
		if err := fn(ev); err != nil {
			return progressed, &callbackError{err: err}
		}
		if ev.Final {
			_, _ = io.Copy(io.Discard, resp.Body)
			return progressed, nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return progressed, err
	}
	return progressed, ctx.Err()
}

// Wait blocks until the job reaches a terminal state and returns its final
// status. It waits on the event stream, whose final line carries the job's
// terminal status, so a waited job costs one request. A stream that ends
// without it — an older daemon, a dropped or inconclusive stream — falls
// back to reading the status, re-polled with capped exponential backoff plus
// jitter until terminal. A dead peer (PeerDownError) or an unknown job (404)
// on the stream returns as-is, so failover and Run's resubmission each spend
// one retry budget.
func (c *Client) Wait(ctx context.Context, id string) (api.JobInfo, error) {
	bo := newBackoff(c.Retry)
	for {
		var final *api.JobInfo
		err := c.Events(ctx, id, func(ev api.Event) error {
			if ev.Final && ev.Job != nil && api.Terminal(ev.Job.State) {
				final = ev.Job
			}
			return nil
		})
		if final != nil {
			return *final, nil
		}
		if ctx.Err() != nil {
			return api.JobInfo{}, ctx.Err()
		}
		if IsPeerDown(err) || IsUnknownJob(err) {
			return api.JobInfo{}, err
		}
		info, err := c.Job(ctx, id)
		if err != nil {
			return api.JobInfo{}, err
		}
		if api.Terminal(info.State) {
			return info, nil
		}
		// An inconclusive stream: poll again, backed off.
		if err := bo.sleep(ctx, 0); err != nil {
			return api.JobInfo{}, err
		}
	}
}

// resubmitAttempts bounds how many times Run re-runs the submit+wait cycle
// when the daemon disowns a job id mid-wait (it restarted and lost its
// in-memory state). Each pass already carries the full retry budget.
const resubmitAttempts = 3

// Run submits the spec and waits for the result — the one-call path the
// remote experiment runner uses. It is RunJob plus decoding the result.
func (c *Client) Run(ctx context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
	info, err := c.RunJob(ctx, spec)
	if err != nil {
		return api.Result{}, info, err
	}
	var res api.Result
	if err := json.Unmarshal(info.Result, &res); err != nil {
		return api.Result{}, info, fmt.Errorf("specmpkd: bad result payload: %w", err)
	}
	return res, info, nil
}

// RunJob submits the spec and waits for the job to end, returning the done
// job's status with its result bytes undecoded, for a caller that reads only
// part of them; a failed or cancelled job is a *JobError. The returned
// JobInfo reports whether the result came from the cache. If the daemon
// restarts mid-job and no longer knows the job id, RunJob resubmits the
// spec: the content-addressed key guarantees the resubmission asks for
// exactly the same simulation.
func (c *Client) RunJob(ctx context.Context, spec api.JobSpec) (api.JobInfo, error) {
	var lastErr error
	for attempt := 0; attempt < resubmitAttempts; attempt++ {
		sctx := ctx
		if attempt > 0 {
			// Recovery pass: mark the submit so the daemon's
			// server.jobs.resubmitted counter records that this job came back
			// via content-addressed resubmission after a restart.
			sctx = WithResubmit(ctx)
			c.resubmits.Add(1)
		}
		info, err := c.Submit(sctx, spec)
		if err != nil {
			return api.JobInfo{}, err
		}
		if !api.Terminal(info.State) {
			if info, err = c.Wait(ctx, info.ID); err != nil {
				if IsUnknownJob(err) && ctx.Err() == nil {
					lastErr = err
					continue
				}
				return info, err
			}
		}
		if info.State != api.StateDone {
			return info, &JobError{Info: info}
		}
		return info, nil
	}
	return api.JobInfo{}, fmt.Errorf("specmpkd: job lost %d times across daemon restarts: %w",
		resubmitAttempts, lastErr)
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.request(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Healthz probes daemon liveness. Deliberately retry-free: health probes
// report the instant truth, the prober supplies its own cadence.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.HealthzInfo(ctx)
	return err
}

// HealthzInfo probes daemon liveness and returns the diagnostic payload —
// status and version (what the cluster prober checks), worker pool, and the
// queue-load fields. Retry-free, like Healthz.
func (c *Client) HealthzInfo(ctx context.Context) (api.Healthz, error) {
	var h api.Healthz
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// CachedResult probes the daemon's content-addressed result cache for key
// (GET /v1/cache/{key}) without submitting a job: the canonical result bytes
// verbatim on a hit, ok=false on a miss. Deliberately single-attempt — a
// failed probe just means the caller simulates, so retrying it would only
// add latency to the miss path.
func (c *Client) CachedResult(ctx context.Context, key string) (json.RawMessage, bool, error) {
	resp, err := c.request(ctx, http.MethodGet, "/v1/cache/"+key, nil)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return json.RawMessage(b), true, nil
}

// Package server implements specmpkd's core: a bounded job queue served by
// a context-aware worker pool, one content-addressed store keyed by the
// canonical spec hash (internal/server/api) that both serves finished
// results and collapses identical in-flight requests onto one execution,
// streamed per-job progress events, Prometheus-rendered server metrics, and
// graceful drain.
//
// The simulator itself stays single-threaded per machine — the server scales
// by running independent machines on independent workers, which is exactly
// how the experiment sweeps parallelize locally. Sampled-fidelity jobs go one
// step further: they fan their representative intervals out as sub-tasks the
// same pool's idle workers steal (see sampled.go), so a single sampled job
// also parallelizes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/simpoint"
	"specmpk/internal/stats"
)

// The service's fault points (see internal/faults). Each names one seam of
// the request path; disarmed they cost one atomic load. The chaos suite
// arms them to prove the hardening around each seam: admission faults
// surface as retryable 503s, worker faults become failed jobs (never cached,
// never fatal), cache faults degrade to misses/skipped fills, HTTP and
// stream faults are absorbed by the client's retry layer.
var (
	fpQueueAdmit     = faults.Register("server.queue.admit")
	fpWorkerSimulate = faults.Register("server.worker.simulate")
	fpCacheGet       = faults.Register("server.cache.get")
	fpCachePut       = faults.Register("server.cache.put")
	fpResultMarshal  = faults.Register("server.result.marshal")
	fpHTTPRequest    = faults.Register("server.http.request")
	fpEventsStream   = faults.Register("server.events.stream")
)

// ErrDegradeLocal is the sentinel a Forwarder returns (possibly wrapped)
// when no healthy peer can take the job: the worker falls through to local
// simulation — the bottom rung of the cluster degradation ladder, where a
// fully partitioned node still answers every request it can compute itself.
var ErrDegradeLocal = errors.New("no healthy peer: degrade to local simulation")

// ForwardOutcome is a remotely computed job: the owner peer's canonical
// result bytes verbatim (bit-identical to simulating locally, which is what
// lets them enter the local cache), plus the headline figures for spans and
// events.
type ForwardOutcome struct {
	// Result is the canonical api.Result JSON exactly as the peer produced
	// it. It is never re-marshalled: byte identity across nodes is the
	// property the content-addressed cache relies on.
	Result json.RawMessage
	// StopReason is the remote run's stop reason (the job span attribute).
	StopReason string
	// Cycles/Insts are the remote run's headline progress figures.
	Cycles, Insts uint64
	// Peer names the node that answered; PeerCacheHit marks an answer served
	// from the peer's cache without simulating.
	Peer         string
	PeerCacheHit bool
}

// Forwarder is the cluster seam: when set (SetForwarder), the submit path
// asks it once per new execution whether the job's content-addressed key
// belongs to another node, and if so a forward runs it there, holding no
// worker. The server stays ignorant of ring layout, health tracking and
// hedging — that is internal/cluster's job; the interface keeps the
// dependency pointing outward.
type Forwarder interface {
	// Remote reports whether key should run on a peer rather than locally.
	// It is asked once per new execution, under the server's submit lock,
	// so it must answer from state it already holds, without blocking.
	Remote(key string) bool
	// RunRemote executes the spec on the cluster and returns the owner's
	// result. An error wrapping ErrDegradeLocal means no peer could take it
	// and the caller should simulate locally; any other error is terminal
	// for the job (the spec is deterministic, so the remote failure is what
	// a local run would have produced).
	RunRemote(ctx context.Context, key string, spec api.JobSpec) (ForwardOutcome, error)
}

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS): how many
	// simulations run at once. A forward to a cluster peer holds no worker.
	Workers int
	// QueueSize bounds the pending-execution queue, and apart from it the
	// forwards in flight; submits beyond either bound are rejected with 503
	// rather than buffered without bound (0 = 256).
	QueueSize int
	// CacheEntries bounds the resident results of the content-addressed
	// result store (0 = 512, negative retains none; identical in-flight
	// specs still share one execution).
	CacheEntries int
	// ProfileCacheEntries bounds the resident plans of the sampled-job
	// profile store — immutable simpoint plans (chosen intervals +
	// checkpoints) keyed by api.JobSpec.ProfileKey, so a policy sweep
	// profiles each workload once (0 = 64, negative retains none; concurrent
	// builds of one plan are still shared).
	ProfileCacheEntries int
	// EventInterval is the progress-event cadence in simulated cycles
	// (0 = 1,000,000).
	EventInterval uint64
	// MaxCycles is the default per-job cycle budget, the job-timeout
	// backstop for specs that do not set their own (0 = 500,000,000).
	MaxCycles uint64
	// MaxWallMS is the default per-job wall-clock budget in milliseconds
	// for specs that do not set their own (0 = unlimited). A job that
	// exhausts it fails with a "deadline" error and is never cached: the
	// cycles a wall-clock window buys are host-dependent, so a partial
	// result would break the cache's determinism contract.
	MaxWallMS uint64
	// SpanBuffer sizes the span flight recorder: completed request spans
	// land in a bounded ring dumpable via GET /v1/debug/spans. 0 disables
	// tracing entirely — the disarmed state, where every trace seam costs
	// one nil check and no IDs are generated.
	SpanBuffer int
	// Logger receives the server's structured logs (nil = slog.Default()).
	// Every job-scoped line carries trace_id and job_id.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	switch {
	case o.CacheEntries < 0:
		o.CacheEntries = 0 // disabled
	case o.CacheEntries == 0:
		o.CacheEntries = 512
	}
	switch {
	case o.ProfileCacheEntries < 0:
		o.ProfileCacheEntries = 0 // disabled
	case o.ProfileCacheEntries == 0:
		o.ProfileCacheEntries = 64
	}
	if o.EventInterval == 0 {
		o.EventInterval = 1_000_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 500_000_000
	}
	return o
}

// latencyBoundsMS are the bucket upper bounds (milliseconds) shared by every
// job-lifecycle latency histogram: sub-millisecond resolution for the cache
// and queue fast paths, minutes of range for full simulations.
var latencyBoundsMS = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000, 60_000, 300_000,
}

// latencies are the server's job-lifecycle histograms ("server.latency.*"):
// where a job's wall-clock time goes between submit and final state. All are
// SyncHistograms — workers observe while /v1/metrics snapshots concurrently.
type latencies struct {
	// queueWait: execution enqueued -> its run begun by a worker or, for
	// an execution a peer owns, by its forward.
	queueWait *stats.SyncHistogram
	// dedupWait: a deduped job's submit -> its primary execution finishing
	// (how long single-flight coalescing made the attached job wait).
	dedupWait *stats.SyncHistogram
	// simulate: wall time of the run itself, a simulation on a worker or a
	// forward's wait on its peer.
	simulate *stats.SyncHistogram
	// cacheLookup: the result-store lookup on the submit path.
	cacheLookup *stats.SyncHistogram
	// e2e: submit -> terminal state, for every job (cache hits included).
	e2e *stats.SyncHistogram
}

func newLatencies() latencies {
	return latencies{
		queueWait:   stats.NewSyncHistogram(latencyBoundsMS),
		dedupWait:   stats.NewSyncHistogram(latencyBoundsMS),
		simulate:    stats.NewSyncHistogram(latencyBoundsMS),
		cacheLookup: stats.NewSyncHistogram(latencyBoundsMS),
		e2e:         stats.NewSyncHistogram(latencyBoundsMS),
	}
}

// ms converts a duration to float64 milliseconds for the latency histograms.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Server is the simulation service. It is safe for concurrent use; create
// with New and serve its Handler (or mount it — Server implements
// http.Handler).
type Server struct {
	opt      Options
	cache    *store[[]byte, *execution]
	profiles *store[*simpoint.Plan, *profileBuild]
	started  time.Time
	lat      latencies
	// rec is the span flight recorder; nil when Options.SpanBuffer == 0
	// (tracing disarmed — the nil check per seam is the whole cost).
	rec    *otrace.Recorder
	logger *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// queue carries executions to the worker pool: new local ones and
	// degraded forwards. Shutdown closes it once no forward can still send.
	queue chan *execution
	// subq carries sampled jobs' per-interval sub-tasks. Unlike queue it is
	// never closed: tasks are claim-run (CAS) with the owning worker as the
	// fallback runner, so stale entries after a drain are inert and a send
	// can never hit a closed channel.
	subq chan *intervalTask
	wg   sync.WaitGroup // the pool's workers
	// forwards waits for the forward goroutines; forwarding counts them for
	// admission (incremented only under mu, against Options.QueueSize).
	forwards   sync.WaitGroup
	forwarding atomic.Int64

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	finished []string // finished job ids, oldest first (retention)
	nextID   uint64

	// fwd is the cluster forwarding seam (nil = single-node). Written once
	// by SetForwarder before the server starts taking submissions, which
	// read it.
	fwd Forwarder

	// Metrics (atomics: snapshotted concurrently with workers).
	accepted, rejected   atomic.Uint64
	deduped              atomic.Uint64
	jobsDone, jobsFailed atomic.Uint64
	jobsCancelled        atomic.Uint64
	jobsDeadline         atomic.Uint64
	jobsResubmitted      atomic.Uint64
	jobsForwarded        atomic.Uint64
	forwardDegraded      atomic.Uint64
	panicsRecovered      atomic.Uint64
	sampledJobs          atomic.Uint64
	sampledIntervals     atomic.Uint64
	sampledStolen        atomic.Uint64
	profileHits          atomic.Uint64
	profileMisses        atomic.Uint64
	running              atomic.Int64
	reg                  *stats.Registry
	registerMetricsOnce  sync.Once
	handlerOnce          sync.Once
	handler              http.Handler
}

// New builds a server and starts its worker pool.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	logger := opt.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		opt:        opt,
		cache:      newStore[[]byte, *execution](opt.CacheEntries),
		profiles:   newStore[*simpoint.Plan, *profileBuild](opt.ProfileCacheEntries),
		started:    time.Now(),
		lat:        newLatencies(),
		rec:        otrace.NewRecorder(opt.SpanBuffer),
		logger:     logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *execution, opt.QueueSize),
		subq:       make(chan *intervalTask, opt.QueueSize),
		jobs:       make(map[string]*job),
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// ErrUnavailable marks submit rejections that should surface as 503: the
// queue is full or the server is draining.
type ErrUnavailable struct{ Reason string }

func (e ErrUnavailable) Error() string { return "server unavailable: " + e.Reason }

// Submit validates and accepts one job with no propagated trace context —
// the in-process entry point (tests, the perf harness). See SubmitWith.
func (s *Server) Submit(spec api.JobSpec) (api.JobInfo, error) {
	return s.SubmitWith(SubmitOpts{}, spec)
}

// SetForwarder installs the cluster forwarding seam. Call it once, after New
// and before the server takes its first submission; passing nil keeps the
// single-node behaviour.
func (s *Server) SetForwarder(f Forwarder) { s.fwd = f }

// SubmitOpts carries a submission's cross-cutting context: its propagated
// trace parent and the cluster-coordination markers from the request
// headers.
type SubmitOpts struct {
	// Parent is the propagated trace context (zero = fresh root when armed).
	Parent otrace.SpanContext
	// Forwarded marks a submit a cluster coordinator already placed here:
	// the job must run locally, never be forwarded again (loop prevention).
	Forwarded bool
	// Resubmit marks a re-placement of a job whose first placement died;
	// counted as server.jobs.resubmitted.
	Resubmit bool
}

// SubmitWith validates and accepts one job, rooting its request trace at
// opts.Parent (the span context propagated via the W3C traceparent header;
// the zero value starts a fresh root when tracing is armed) — see SubmitOpts
// for the cluster-coordination markers. One result-store lookup decides the
// fast paths, and neither simulates: a resident result resolves the job
// immediately, and a spec identical to a pending execution attaches to it
// (single-flight). Otherwise the job's new execution is dispatched (see
// dispatchLocked), or the submit is rejected with ErrUnavailable when its
// bound is reached or the server is draining.
func (s *Server) SubmitWith(opts SubmitOpts, spec api.JobSpec) (api.JobInfo, error) {
	parent := opts.Parent
	norm, err := spec.Normalize()
	if err != nil {
		return api.JobInfo{}, err
	}
	key, err := norm.Key()
	if err != nil {
		return api.JobInfo{}, err
	}
	if opts.Resubmit {
		// Counted on arrival (not on outcome): the point is to prove the
		// recovery path ran, whatever disposition the resubmitted spec lands
		// on — cache, dedup, or a fresh execution.
		s.jobsResubmitted.Add(1)
	}

	// Admission fault point, fired outside the lock so an injected latency
	// stalls only this submit, not the whole server. An injected error or
	// drop degrades to the same retryable 503 a full queue produces.
	if ferr := fpQueueAdmit.Fire(); ferr != nil {
		s.rejected.Add(1)
		return api.JobInfo{}, ErrUnavailable{Reason: ferr.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Add(1)
		return api.JobInfo{}, ErrUnavailable{Reason: "draining"}
	}

	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.nextID),
		key:       key,
		submitted: time.Now(),
	}
	// Root the job's trace: armed recorders always span the job (joining the
	// propagated trace or minting a fresh root); a disarmed recorder still
	// echoes a propagated trace ID so cross-process correlation survives
	// even when this daemon keeps no spans.
	if s.rec != nil {
		j.span = s.rec.StartSpanAt(parent, "job", j.submitted)
		j.traceID = j.span.TraceID()
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("key", key)
		j.span.SetAttr("mode", norm.Mode)
		if norm.Workload != "" {
			j.span.SetAttr("workload", norm.Workload)
		} else {
			j.span.SetAttr("program", "asm")
		}
	} else if parent.Valid() {
		j.traceID = parent.Trace.String()
	}

	lookupStart := time.Now()
	lsp := s.rec.StartSpanAt(j.span.Context(), "cache.lookup", lookupStart)
	// An injected fault at server.cache.get degrades to a miss — a flaky
	// cache must cost a re-simulation, never a failed request — and is
	// recorded on the lookup span so a chaos run's forced misses are
	// reconstructable per request.
	ferr := fpCacheGet.Fire()
	if ferr != nil {
		lsp.Event("fault_injected", "point", fpCacheGet.Name(), "error", ferr.Error())
	}
	b, ex, st := s.cache.lookup(key, ferr != nil, func() *execution { return newExecution(s.baseCtx, key, norm) })
	lookupDur := time.Since(lookupStart)
	s.lat.cacheLookup.Observe(ms(lookupDur))
	lsp.SetAttr("hit", st == resident)
	lsp.EndAt(lookupStart.Add(lookupDur))
	switch st {
	case resident:
		j.cached = true
		j.span.SetAttr("cached", true)
		hit := outcome{state: api.StateDone, result: b, cacheDisp: "hit"}
		j.exec = resolvedExecution(key, norm, hit)
		s.registerLocked(j)
		s.finishLocked(j, hit)
		return j.info(), nil
	case joined:
		j.deduped = true
		s.deduped.Add(1)
		j.span.SetAttr("deduped", true)
		if ex.sc.Valid() {
			// The simulate/queue spans live in the primary job's trace;
			// link this trace to it so the dedup is reconstructable.
			j.span.SetAttr("primary_trace", ex.sc.Trace.String())
		}
	case installed:
		// Arm the execution's trace seams before it can reach whoever runs
		// it: stage spans parent onto this (primary) job's span.
		ex.sc = j.span.Context()
		ex.queueSpan = s.rec.StartSpanAt(ex.sc, "queue.wait", ex.queuedAt)
		if err := s.dispatchLocked(ex, opts.Forwarded); err != nil {
			ex.cancel()
			s.cache.settle(key, ex, nil, false)
			s.rejected.Add(1)
			return api.JobInfo{}, err
		}
	}
	// Joins happen under s.mu, before the execution settles its key, so end
	// (which takes s.mu after settling) finishes every job.
	j.exec = ex
	ex.jobs = append(ex.jobs, j)
	s.registerLocked(j)
	return j.info(), nil
}

// dispatchLocked hands a new execution to what runs it, deciding once
// whether it is remote: a forward of its own when the forwarder places its
// key on a peer, a pool worker through the queue otherwise. A submit a
// cluster coordinator already placed here (placed) always runs locally,
// never forwarded again (loop prevention). Forwards in flight and the queue
// are each bounded by Options.QueueSize; beyond that the execution is
// refused. Called under s.mu with draining false, so Shutdown's wait for
// the forwards and its close of the queue see every dispatch.
func (s *Server) dispatchLocked(ex *execution, placed bool) error {
	if s.fwd != nil && !placed && s.fwd.Remote(ex.key) {
		if s.forwarding.Load() >= int64(s.opt.QueueSize) {
			return ErrUnavailable{Reason: "queue full: forwards in flight at the bound"}
		}
		s.forwarding.Add(1)
		s.forwards.Add(1)
		go s.forward(ex)
		return nil
	}
	select {
	case s.queue <- ex:
		return nil
	default:
		return ErrUnavailable{Reason: "queue full"}
	}
}

func (s *Server) registerLocked(j *job) {
	s.accepted.Add(1)
	s.jobs[j.id] = j
}

// Job returns a job's status.
func (s *Server) Job(id string) (api.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return api.JobInfo{}, false
	}
	return j.info(), true
}

// Cancel cancels a job's execution: queued executions resolve immediately,
// running ones are cancelled through their context (the pipeline polls it
// every ~1k simulated cycles). Deduped jobs share their primary execution's
// cancellation domain.
func (s *Server) Cancel(id string) (api.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return api.JobInfo{}, false
	}
	ex := j.exec
	ex.cancel()
	// A queued execution has no worker to notice the cancellation yet;
	// end it here. (A running one is ended by its worker unless this claim
	// wins first.)
	s.end(ex, outcome{state: api.StateCancelled, errMsg: context.Canceled.Error()})
	return j.info(), true
}

// Subscribe attaches to a job's event stream.
func (s *Server) Subscribe(id string) (<-chan api.Event, func(), bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	ch, cancel := j.exec.subscribe()
	return ch, cancel, true
}

// Run submits spec and waits for its outcome: the in-process twin of
// client.Client.Run, with the same returns. A done job's stored result is
// decoded; a failed or cancelled job is a *client.JobError; a refused
// submit is the *client.APIError the HTTP API would answer (400 for a bad
// spec, 503 while the server is unavailable). If ctx ends first, Run
// cancels the job and returns ctx's error.
func (s *Server) Run(ctx context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
	info, err := s.SubmitWith(SubmitOpts{Parent: otrace.FromContext(ctx)}, spec)
	if err != nil {
		return api.Result{}, api.JobInfo{}, &client.APIError{Status: submitStatus(err), Msg: err.Error()}
	}
	id := info.ID
	if ch, unsubscribe, ok := s.Subscribe(id); ok {
		defer unsubscribe()
		for open := true; open; {
			select {
			case _, open = <-ch:
			case <-ctx.Done():
				s.Cancel(id)
				return api.Result{}, info, ctx.Err()
			}
		}
	}
	info, ok := s.Job(id)
	if !ok {
		return api.Result{}, api.JobInfo{}, fmt.Errorf("server: job %s left the retention window before it was read", id)
	}
	if info.State != api.StateDone {
		return api.Result{}, info, &client.JobError{Info: info}
	}
	var res api.Result
	if err := json.Unmarshal(info.Result, &res); err != nil {
		return api.Result{}, info, fmt.Errorf("server: bad stored result: %w", err)
	}
	return res, info, nil
}

// retainJobs bounds how many finished job records stay queryable; the
// oldest are forgotten first.
const retainJobs = 4096

// finishLocked ends one job with its execution's outcome o, once: it retires
// the job into the retention window, observes its end-to-end latency (and a
// deduped job's dedup wait), closes its root span with o, and logs one line.
// Every job ends here, cache hits included; a job already finished is left
// alone.
func (s *Server) finishLocked(j *job, o outcome) {
	if j.retired {
		return
	}
	j.retired = true
	s.finished = append(s.finished, j.id)
	for len(s.finished) > retainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	wait := time.Since(j.submitted)
	s.lat.e2e.Observe(ms(wait))
	if j.deduped {
		s.lat.dedupWait.Observe(ms(wait))
		dsp := s.rec.StartSpanAt(j.span.Context(), "dedup.wait", j.submitted)
		dsp.EndAt(j.submitted.Add(wait))
	}
	j.span.SetAttr("state", o.state)
	if o.stopReason != "" {
		j.span.SetAttr("stop_reason", o.stopReason)
	}
	j.span.SetAttr("cache", o.cacheDisp)
	if o.errMsg != "" {
		j.span.SetError(o.errMsg)
	}
	j.span.EndAt(j.submitted.Add(wait))
	if s.logger.Enabled(context.Background(), slog.LevelDebug) {
		s.logger.Debug("job finished",
			"job_id", j.id, "trace_id", j.traceID, "key", j.key,
			"state", o.state, "stop_reason", o.stopReason,
			"deduped", j.deduped, "e2e_ms", ms(wait))
	}
}

// worker serves the job queue and, between jobs, steals sampled jobs'
// interval sub-tasks — that is how one sampled job's representative
// intervals end up simulating concurrently across the pool. A worker exits
// when the job queue closes (drain); any sub-task it leaves behind is
// claim-run inline by the sampled job that owns it, so the drain never
// strands work.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case ex, ok := <-s.queue:
			if !ok {
				return
			}
			s.runExecution(ex)
		case t := <-s.subq:
			if t.claim() {
				t.run(true)
			}
		}
	}
}

// Shutdown drains the server: new submits are rejected, queued, forwarded
// and running executions complete, then the worker pool exits. If ctx
// expires first, every outstanding execution is cancelled (jobs resolve as
// "cancelled") and the drain completes anyway; the context error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.forwards.Wait()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		// No submitter can be mid-dispatch: dispatches happen under s.mu
		// with draining false, and draining is now set. A forward may still
		// hand a degraded execution to the queue, so the queue closes only
		// once every forward has returned.
		s.forwards.Wait()
		close(s.queue)
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Queue/pool introspection for tests and the daemon's logs.

// QueueDepth returns the number of executions waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// SpanRecorder returns the span flight recorder, nil when tracing is
// disarmed (Options.SpanBuffer == 0).
func (s *Server) SpanRecorder() *otrace.Recorder { return s.rec }

// Registry returns the server's metrics registry ("server.*" namespace),
// building it on first use. Safe to snapshot concurrently with running
// workers: the server's source reads atomics, lock-guarded lengths and
// SyncHistograms.
func (s *Server) Registry() *stats.Registry {
	s.registerMetricsOnce.Do(func() {
		s.reg = stats.NewRegistry()
		s.reg.Add(s.writeMetrics)
	})
	return s.reg
}

func (s *Server) writeMetrics(w *stats.Writer) {
	w.Counter("server.jobs.accepted", "jobs accepted (incl. cache hits and deduped attaches)", s.accepted.Load())
	w.Counter("server.jobs.rejected", "submits rejected (queue full or draining)", s.rejected.Load())
	w.Counter("server.jobs.deduped", "jobs attached to an identical in-flight execution", s.deduped.Load())
	w.Counter("server.jobs.done", "executions completed successfully", s.jobsDone.Load())
	w.Counter("server.jobs.failed", "executions failed", s.jobsFailed.Load())
	w.Counter("server.jobs.cancelled", "executions cancelled", s.jobsCancelled.Load())
	w.Counter("server.jobs.deadline", "executions failed by their wall-clock deadline", s.jobsDeadline.Load())
	w.Counter("server.jobs.resubmitted", "jobs re-placed via content-addressed resubmission after a node/daemon death", s.jobsResubmitted.Load())
	w.Counter("server.jobs.forwarded", "executions answered by a cluster peer instead of simulating locally", s.jobsForwarded.Load())
	w.Counter("server.jobs.forward_degraded", "executions simulated locally because no healthy peer could take them", s.forwardDegraded.Load())
	w.Counter("server.panics_recovered", "worker/HTTP panics contained without killing the process", s.panicsRecovered.Load())
	w.Counter("server.cache.hits", "result-cache hits", s.cache.hits.Load())
	w.Counter("server.cache.misses", "result-cache misses (dedups onto a pending execution included)", s.cache.misses.Load())
	w.Counter("server.cache.evictions", "result-cache LRU evictions", s.cache.evictions.Load())
	w.Gauge("server.cache.entries", "result-cache resident entries", float64(s.cache.len()))
	w.Counter("server.cache.peer_lookups", "cache probes from cluster peers (GET /v1/cache/{key})", s.cache.peeks.Load())
	w.Counter("server.cache.peer_hits", "peer cache probes answered from the local cache", s.cache.peekHits.Load())
	w.Counter("server.sampled.jobs", "sampled-fidelity executions completed", s.sampledJobs.Load())
	w.Counter("server.sampled.intervals", "representative intervals simulated in detail", s.sampledIntervals.Load())
	w.Counter("server.sampled.intervals_stolen", "intervals run by idle pool workers instead of the owning worker", s.sampledStolen.Load())
	w.Counter("server.sampled.profile_cache_hits", "sampled jobs served an existing profile plan", s.profileHits.Load())
	w.Counter("server.sampled.profile_cache_misses", "sampled jobs that had to build a profile plan", s.profileMisses.Load())
	w.Gauge("server.sampled.profile_cache_entries", "profile-cache resident plans", float64(s.profiles.len()))
	w.Gauge("server.jobs.running", "executions started and not yet ended (simulating on a worker or forwarded to a peer)", float64(s.running.Load()))
	w.Gauge("server.queue.depth", "executions waiting for a worker", float64(len(s.queue)))
	w.Gauge("server.queue.capacity", "bounded queue capacity", float64(s.opt.QueueSize))
	w.Gauge("server.workers", "worker-pool size", float64(s.opt.Workers))
	w.Gauge("server.spans.resident", "spans resident in the flight recorder", float64(s.rec.Len()))
	w.Gauge("server.spans.dropped", "spans overwritten in the flight-recorder ring", float64(s.rec.Dropped()))
	w.Histogram("server.latency.queue_wait_ms", "queued -> run begun by a worker or a forward (ms)", s.lat.queueWait.Value())
	w.Histogram("server.latency.dedup_wait_ms", "deduped job submit -> primary execution finished (ms)", s.lat.dedupWait.Value())
	w.Histogram("server.latency.simulate_ms", "run wall time, simulating on a worker or forwarded to a peer (ms)", s.lat.simulate.Value())
	w.Histogram("server.latency.cache_lookup_ms", "content-addressed cache probe on submit (ms)", s.lat.cacheLookup.Value())
	w.Histogram("server.latency.e2e_ms", "submit -> terminal state, cache hits included (ms)", s.lat.e2e.Value())
	w.Counter("faults.fired", "fault-point activations (all actions)", faults.Fired())
	w.Counter("faults.errors", "injected errors", faults.Errors())
	w.Counter("faults.panics", "injected panics", faults.Panics())
	w.Counter("faults.latency_injected", "injected latency events", faults.Latencies())
	w.Counter("faults.drops", "injected drops", faults.Drops())
}

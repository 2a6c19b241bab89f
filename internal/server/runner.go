package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"specmpk/internal/asm"
	"specmpk/internal/otrace"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// runExecutionContained is the worker pool's panic boundary: any panic that
// escapes runExecution — a simulation bug, a fault-injected panic in the
// bookkeeping path — resolves the execution as a failed job carrying the
// panic value and stack, and the worker goroutine survives to serve the
// next job. The containment is what makes "a panicking simulation" a job
// outcome instead of a daemon outage.
func (s *Server) runExecutionContained(ex *execution) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			s.logger.Error("panic contained in worker pool",
				"trace_id", ex.sc.Trace.String(), "key", ex.key, "panic", fmt.Sprint(r))
			// Both idempotent: they release the key and retire the
			// execution's jobs even when the panic struck after a claim,
			// whose deferred publish has then already run.
			s.cache.settle(ex.key, ex, nil, false)
			if !s.conclude(ex, outcome{state: api.StateFailed, errMsg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}, 0, "") {
				s.onExecutionDone(ex)
			}
		}
	}()
	s.runExecution(ex)
}

// runExecution is one worker's handling of one execution: simulate in
// event-interval chunks, publish progress, settle the key in the result
// store, resolve the terminal state, and do the server-side bookkeeping.
// The queue.wait and simulate stage spans close here with exactly the
// durations the matching server.latency.* histograms observe.
func (s *Server) runExecution(ex *execution) {
	if !ex.start() {
		// Cancelled while queued; Cancel already resolved it.
		return
	}
	s.running.Add(1)
	t0 := time.Now()
	queueWait := t0.Sub(ex.queuedAt)
	s.lat.queueWait.Observe(ms(queueWait))
	ex.queueSpan.EndAt(ex.queuedAt.Add(queueWait))
	ex.simSpan = s.rec.StartSpanAt(ex.sc, "simulate", t0)
	o := s.simulateContained(ex)
	s.running.Add(-1)
	simDur := time.Since(t0)
	s.lat.simulate.Observe(ms(simDur))
	ex.simSpan.SetAttr("state", o.state)
	ex.simSpan.SetAttr("cycles", o.cycle)
	ex.simSpan.SetAttr("insts", o.insts)
	if o.errMsg != "" {
		ex.simSpan.SetError(o.errMsg)
	}
	ex.simSpan.EndAt(t0.Add(simDur))
	cacheDisp := s.settleResult(ex, o.state, o.result)
	// A lost claim means Cancel won the race; it does the bookkeeping.
	s.conclude(ex, o, simDur, cacheDisp)
}

// conclude is the one way an execution ends. It claims the end for o (a
// lost claim returns false and does nothing), then does the bookkeeping —
// the outcome counters, the wall-time total, the cache disposition, and
// onExecutionDone's histograms and job spans — and only then publishes the
// terminal event, so a reader it wakes sees all of that already done. The
// publish is deferred: a panic in the bookkeeping still ends the execution.
// It runs with ex.mu released, keeping the s.mu-before-ex.mu lock order.
func (s *Server) conclude(ex *execution, o outcome, wall time.Duration, cacheDisp string) bool {
	if !ex.claim(o) {
		return false
	}
	defer ex.publish()
	s.wallMSTotal.Add(uint64(wall.Milliseconds()))
	switch o.state {
	case api.StateDone:
		s.jobsDone.Add(1)
	case api.StateFailed:
		s.jobsFailed.Add(1)
	case api.StateCancelled:
		s.jobsCancelled.Add(1)
	}
	ex.setTrace("", cacheDisp)
	s.onExecutionDone(ex)
	return true
}

// settleResult moves the execution's key out of pending before conclude
// publishes the terminal event: a client that resubmits the moment it sees
// the outcome finds the key resident (a clean result) or absent (anything
// else), never still pending on this dead execution. Only a clean,
// deterministic completion is kept: failed (including deadline-exceeded and
// panicking) and cancelled runs never produce result bytes, so they can
// never poison the store. An injected fault at server.cache.put skips the
// fill: the job still succeeds, the next identical spec just re-simulates.
// The returned disposition is what the job spans carry as "cache".
func (s *Server) settleResult(ex *execution, state string, result []byte) string {
	disp := "uncacheable"
	if state == api.StateDone {
		disp = "filled"
		if err := fpCachePut.Fire(); err != nil {
			disp = "skipped_fault"
		} else if s.opt.CacheEntries <= 0 {
			disp = "disabled"
		}
	}
	if !s.cache.settle(ex.key, ex, result, disp == "filled") && disp == "filled" {
		disp = "released" // a racing Cancel settled the key first
	}
	return disp
}

// simulateContained runs the simulation itself under a recover, so a panic
// inside the pipeline (or injected at server.worker.simulate) becomes a
// failed-job outcome with the panic value and stack in the error — and a
// panic_recovered event on the simulate span, so a chaos run's contained
// panics are reconstructable per request.
func (s *Server) simulateContained(ex *execution) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			ex.simSpan.Event("panic_recovered", "panic", fmt.Sprint(r))
			o = outcome{state: api.StateFailed, errMsg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	return s.simulate(ex)
}

// simulate runs the job to completion, cancellation, or one of its budgets.
// It is the one run contract for both fidelities: it builds the machine
// config and program, arms the wall-clock deadline and fires the worker
// fault point, and then the fidelity chooses only the run itself — runFull
// or runSampled. Whatever the run returns is classified here, once, and a
// clean result is encoded by marshal.
//
// Two budgets with opposite taxonomies bound every job:
//
//   - The cycle budget (spec or server default). Exhausting it is DONE with
//     stop reason "cycle_limit": the budget is in the cache key and the
//     partial statistics are deterministic, so they are a legitimate,
//     cacheable result.
//   - The wall-clock budget (spec MaxWallMS or server default). Exhausting
//     it is FAILED with a "deadline:" error: how many cycles fit in a
//     wall-clock window depends on the host, so the partial run is not
//     deterministic and must never be cached.
//
// Cancel and drain end the execution's own context: CANCELLED. "failed"
// otherwise marks jobs that could not simulate at all (bad config,
// unbuildable program, injected worker fault).
func (s *Server) simulate(ex *execution) outcome {
	if o, handled := s.forwardRemote(ex); handled {
		return o
	}
	spec := ex.spec
	cfg, err := spec.MachineConfig()
	if err != nil {
		return outcome{state: api.StateFailed, errMsg: err.Error()}
	}
	prog, err := spec.Program()
	if err != nil {
		return outcome{state: api.StateFailed, errMsg: err.Error()}
	}

	// The wall-clock deadline wraps the execution's cancellation context so
	// Cancel and drain still surface as "cancelled" while expiry fails the
	// job. It is armed before the fault point so an injected latency burns
	// real wall budget, exactly like a stuck run.
	ctx := ex.ctx
	wallMS := spec.MaxWallMS
	if wallMS == 0 {
		wallMS = s.opt.MaxWallMS
	}
	if wallMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ex.ctx, time.Duration(wallMS)*time.Millisecond)
		defer cancel()
	}

	if ferr := fpWorkerSimulate.Fire(); ferr != nil {
		ex.simSpan.Event("fault_injected", "point", fpWorkerSimulate.Name(), "error", ferr.Error())
		return outcome{state: api.StateFailed, errMsg: ferr.Error()}
	}

	run := s.runFull
	if spec.Fidelity == api.FidelitySampled {
		run = s.runSampled
	}
	res, cycle, insts, err := run(ctx, ex, cfg, prog)
	var o outcome
	switch {
	case err == nil:
		o = s.marshal(ex, res)
	case ex.ctx.Err() != nil:
		ex.setTrace(string(pipeline.StopCancelled), "")
		o = outcome{state: api.StateCancelled, errMsg: ex.ctx.Err().Error()}
	case ctx.Err() != nil:
		s.jobsDeadline.Add(1)
		ex.setTrace(string(pipeline.StopDeadline), "")
		ex.simSpan.Event("deadline_exceeded", "wall_ms", wallMS, "cycle", cycle)
		msg := fmt.Sprintf("deadline: wall-clock budget (%d ms) exceeded at cycle %d", wallMS, cycle)
		o = outcome{state: api.StateFailed, errMsg: msg}
	default:
		o = outcome{state: api.StateFailed, errMsg: err.Error()}
	}
	o.cycle, o.insts = cycle, insts
	return o
}

// runFull simulates the whole program under ctx in chunks of the event
// interval; each chunk boundary publishes one progress event, so
// /v1/jobs/{id}/events streams at the same cadence as specmpk-sim
// -stats-interval. Halt, fault and cycle-budget exhaustion are measured
// outcomes and return the result; an error (the context ending) leaves
// the classification to simulate. It returns the cycles and instructions
// simulated either way.
func (s *Server) runFull(ctx context.Context, ex *execution, cfg pipeline.Config, prog *asm.Program) (api.Result, uint64, uint64, error) {
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return api.Result{}, 0, 0, err
	}
	budget := ex.spec.MaxCycles
	if budget == 0 {
		budget = s.opt.MaxCycles
	}
	var prevCycle, prevInsts uint64
	for {
		runErr := m.RunContext(ctx, ^uint64(0), min(m.Cycle()+s.opt.EventInterval, budget))
		st := m.Stats
		// Config.MaxCycles may clamp the run below the next chunk boundary,
		// so a chunk that made no progress means the budget, not the
		// program, ended the run.
		budgetSpent := st.Stop == pipeline.StopCycleLimit && (m.Cycle() >= budget || m.Cycle() == prevCycle)
		switch {
		case runErr == nil, st.Stop == pipeline.StopFault, budgetSpent:
			return api.Result{
				StopReason: string(st.Stop),
				Stats:      st,
				Metrics:    m.StatsRegistry().Snapshot().Flat(),
			}, st.Cycles, st.Insts, nil
		case st.Stop != pipeline.StopCycleLimit:
			return api.Result{}, st.Cycles, st.Insts, runErr
		}
		ipc := 0.0
		if dc := st.Cycles - prevCycle; dc > 0 {
			ipc = float64(st.Insts-prevInsts) / float64(dc)
		}
		ex.progress(st.Cycles, st.Insts, ipc)
		prevCycle, prevInsts = st.Cycles, st.Insts
	}
}

// forwardRemote is the cluster seam on the worker path: when a Forwarder is
// installed and places the job's content-addressed key on a peer, the worker
// runs it there and adopts the peer's canonical result bytes verbatim — they
// enter the local cache bit-identical to a local run, so later submits of
// the same spec are served locally. handled=false falls through to local
// simulation: no forwarder, a coordinator-placed submit (loop prevention),
// a self-owned key, or the degradation ladder's bottom rung (every peer
// down, signalled by ErrDegradeLocal).
//
// Forwarding happens inside the execution rather than at the HTTP layer so
// everything local stays local: the job id, its event stream, single-flight
// dedup and the result cache all behave exactly as for a local run.
func (s *Server) forwardRemote(ex *execution) (o outcome, handled bool) {
	if s.fwd == nil || ex.forwarded || !s.fwd.Remote(ex.key) {
		return outcome{}, false
	}
	ctx := ex.ctx
	if ex.sc.Valid() {
		// Thread the job's trace across the node hop: the forwarder's client
		// propagates it as a traceparent header, so the peer's spans join
		// this trace.
		ctx = otrace.ContextWith(ctx, ex.simSpan.Context())
	}
	out, err := s.fwd.RunRemote(ctx, ex.key, ex.spec)
	switch {
	case err == nil:
		s.jobsForwarded.Add(1)
		ex.setTrace(out.StopReason, "")
		ex.simSpan.SetAttr("forwarded_to", out.Peer)
		if out.PeerCacheHit {
			ex.simSpan.SetAttr("peer_cache_hit", true)
		}
		return outcome{state: api.StateDone, result: out.Result, cycle: out.Cycles, insts: out.Insts}, true
	case errors.Is(err, ErrDegradeLocal):
		s.forwardDegraded.Add(1)
		ex.simSpan.Event("cluster_degraded_local", "error", err.Error())
		s.logger.Warn("cluster degraded to local simulation",
			"trace_id", ex.sc.Trace.String(), "key", ex.key, "err", err)
		return outcome{}, false
	case ex.ctx.Err() != nil:
		return outcome{state: api.StateCancelled, errMsg: ex.ctx.Err().Error()}, true
	default:
		// A terminal remote outcome (failed/cancelled job on the owner). The
		// spec is deterministic, so simulating locally would reproduce it —
		// adopt the failure instead of paying for the rerun.
		return outcome{state: api.StateFailed, errMsg: err.Error()}, true
	}
}

// marshal encodes a run's result as the job's canonical result bytes under
// a marshal span (the last lifecycle stage). The encoding is deterministic
// (fixed struct field order, sorted map keys), so identical specs produce
// bit-identical result bytes — the property the content-addressed cache
// returns verbatim.
func (s *Server) marshal(ex *execution, res api.Result) outcome {
	ex.setTrace(res.StopReason, "")
	msp := s.rec.StartSpanAt(ex.simSpan.Context(), "marshal", time.Now())
	// An injected marshal fault (error or drop alike) fails the job: a
	// result that cannot be encoded cannot be partially delivered.
	if ferr := fpResultMarshal.Fire(); ferr != nil {
		msp.Event("fault_injected", "point", fpResultMarshal.Name(), "error", ferr.Error())
		msp.SetError(ferr.Error())
		msp.End()
		return outcome{state: api.StateFailed, errMsg: fmt.Sprintf("marshal result: %v", ferr)}
	}
	res.Key, res.Version, res.Spec = ex.key, api.Version, ex.spec
	b, err := json.Marshal(res)
	if err != nil {
		msp.SetError(err.Error())
		msp.End()
		return outcome{state: api.StateFailed, errMsg: fmt.Sprintf("marshal result: %v", err)}
	}
	msp.SetAttr("bytes", len(b))
	msp.SetAttr("stop_reason", res.StopReason)
	msp.End()
	return outcome{state: api.StateDone, result: b}
}

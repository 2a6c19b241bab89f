// Sampled-fidelity execution: the server-side SimPoint path.
//
// A sampled job profiles its program once (the plan — chosen representative
// intervals plus a restorable checkpoint at each — lives in the profile
// store, content-addressed by api.JobSpec.ProfileKey, so a policy sweep over
// one workload profiles it exactly once), fans the representative intervals
// out as sub-jobs across the same worker pool full jobs run on, and recombines
// the per-interval statistics into an extrapolated whole-program result with
// an error bound.
//
// The fan-out is deadlock-free by construction: every interval task is
// OFFERED to the shared sub-job queue (idle workers steal them), and the
// owning worker then claim-runs whatever nobody picked up. The claim is a
// CAS, so each task runs exactly once, progress is guaranteed with any pool
// size (a 1-worker server simply runs every interval inline), and no worker
// ever blocks waiting for another worker to free up.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
)

// profileBuild is the profile store's producer: one pending plan build,
// which joiners wait out on done.
type profileBuild struct {
	done chan struct{}
	plan *simpoint.Plan
	err  error
}

// errBuildAborted is what joiners see when a build panicked before
// returning: the panic fails the building job, never strands its joiners.
var errBuildAborted = errors.New("profile build aborted")

// profile returns the plan for pkey from the profile store, building it on a
// miss. Builds are single-flight — concurrent sampled jobs needing the same
// plan wait out one build instead of racing duplicate profiling passes. A
// build error reaches every waiter but is never kept: a transiently
// unprofilable spec retries on the next submission. cached reports whether
// the plan came from the store, including another job's successful build,
// rather than from this call's own build.
func (s *Server) profile(pkey string, build func() (*simpoint.Plan, error)) (plan *simpoint.Plan, cached bool, err error) {
	plan, b, st := s.profiles.lookup(pkey, false, func() *profileBuild {
		return &profileBuild{done: make(chan struct{}), err: errBuildAborted}
	})
	switch st {
	case resident:
		s.profileHits.Add(1)
		return plan, true, nil
	case joined:
		<-b.done
		if b.err != nil {
			return nil, false, b.err
		}
		s.profileHits.Add(1)
		return b.plan, true, nil
	}
	s.profileMisses.Add(1)
	defer func() {
		s.profiles.settle(pkey, b, b.plan, b.err == nil)
		close(b.done)
	}()
	b.plan, b.err = build()
	return b.plan, false, b.err
}

// intervalTask is one representative interval's detailed simulation, offered
// to the worker pool. Whoever wins the claim CAS runs it — an idle worker
// (stolen) or the owning worker's inline sweep.
type intervalTask struct {
	claimed atomic.Bool
	run     func(stolen bool)
}

func (t *intervalTask) claim() bool { return t.claimed.CompareAndSwap(false, true) }

// runSampled executes one sampled-fidelity job end to end on the owning
// worker: resolve the plan (profile store), fan the intervals out,
// recombine, and optionally audit against a full-fidelity run. It is the
// sampled counterpart of (*Server).simulate and returns through the same
// contract.
func (s *Server) runSampled(ex *execution) (state, errMsg string, result []byte, cycle, insts uint64) {
	spec := ex.spec
	cfg, err := spec.MachineConfig()
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}
	prog, err := spec.Program()
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}
	pkey, err := spec.ProfileKey()
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}

	// Same wall-clock discipline as the full path: the deadline wraps the
	// execution's cancellation context, so Cancel/drain surface as
	// "cancelled" while expiry fails the job as "deadline".
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
		return api.StateFailed, ferr.Error(), nil, 0, 0
	}

	// Profile once per program. The plan depends only on the program and the
	// profiling parameters — not the mode or machine config — so a sweep's
	// later jobs find it in the profile store here.
	pt0 := time.Now()
	psp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.profile", pt0)
	psp.SetAttr("profile_key", pkey)
	plan, cached, err := s.profile(pkey, func() (*simpoint.Plan, error) {
		return simpoint.BuildPlan(prog, spec.Sampled.SimPointConfig())
	})
	pd := time.Since(pt0)
	if err != nil {
		psp.SetError(err.Error())
		psp.EndAt(pt0.Add(pd))
		return api.StateFailed, fmt.Sprintf("sampled profile: %v", err), nil, 0, 0
	}
	psp.SetAttr("cached", cached)
	psp.SetAttr("points", len(plan.Points))
	psp.SetAttr("intervals", plan.Intervals)
	psp.EndAt(pt0.Add(pd))

	// Fan the representative intervals out across the pool.
	n := len(plan.Points)
	istats := make([]pipeline.Stats, n)
	ierrs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	tasks := make([]*intervalTask, n)
	for i := range tasks {
		i := i
		tasks[i] = &intervalTask{run: func(stolen bool) {
			defer wg.Done()
			s.sampledIntervals.Add(1)
			if stolen {
				s.sampledStolen.Add(1)
			}
			it0 := time.Now()
			isp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.interval", it0)
			isp.SetAttr("index", plan.Points[i].Interval.Index)
			isp.SetAttr("weight", plan.Points[i].Weight)
			isp.SetAttr("stolen", stolen)
			if cerr := ctx.Err(); cerr != nil {
				ierrs[i] = cerr
				isp.SetError(cerr.Error())
				isp.EndAt(it0.Add(time.Since(it0)))
				return
			}
			st, serr := plan.SimulatePoint(i, cfg, prog)
			istats[i], ierrs[i] = st, serr
			d := time.Since(it0)
			isp.SetAttr("cycles", st.Cycles)
			isp.SetAttr("insts", st.Insts)
			if serr != nil {
				isp.SetError(serr.Error())
			}
			isp.EndAt(it0.Add(d))
		}}
	}
	for _, t := range tasks {
		select {
		case s.subq <- t:
		default: // sub-queue full; the inline sweep below covers it
		}
	}
	for _, t := range tasks {
		if t.claim() {
			t.run(false)
		}
	}
	wg.Wait()

	for i := range istats {
		cycle += istats[i].Cycles
		insts += istats[i].Insts
	}
	for i, ierr := range ierrs {
		if ierr == nil {
			continue
		}
		if ctx.Err() != nil {
			return s.sampledInterrupted(ex, wallMS, cycle, insts)
		}
		return api.StateFailed,
			fmt.Sprintf("sampled interval %d: %v", plan.Points[i].Interval.Index, ierr),
			nil, cycle, insts
	}

	est, err := plan.Estimate(istats)
	if err != nil {
		return api.StateFailed, err.Error(), nil, cycle, insts
	}

	var audit *auditRun
	if spec.Sampled.Audit {
		audit, err = s.runAudit(ctx, ex, cfg, spec, prog)
		if err != nil {
			if ctx.Err() != nil {
				return s.sampledInterrupted(ex, wallMS, cycle, insts)
			}
			return api.StateFailed, fmt.Sprintf("sampled audit: %v", err), nil, cycle, insts
		}
		cycle += audit.stats.Cycles
		insts += audit.stats.Insts
	}
	ex.progress(cycle, insts, est.IPC)
	return s.buildSampledResult(ex, plan, est, istats, pkey, audit, cycle, insts)
}

// sampledInterrupted resolves a sampled run cut short by its context:
// cancellation (Cancel, drain) versus the wall-clock deadline, mirroring the
// full path's taxonomy — neither outcome is ever cached.
func (s *Server) sampledInterrupted(ex *execution, wallMS, cycle, insts uint64) (state, errMsg string, result []byte, c, i uint64) {
	if ex.ctx.Err() != nil {
		ex.setTrace(string(pipeline.StopCancelled), "")
		return api.StateCancelled, context.Canceled.Error(), nil, cycle, insts
	}
	s.jobsDeadline.Add(1)
	ex.setTrace(string(pipeline.StopDeadline), "")
	ex.simSpan.Event("deadline_exceeded", "wall_ms", wallMS)
	return api.StateFailed,
		fmt.Sprintf("deadline: wall-clock budget (%d ms) exceeded during sampled run", wallMS),
		nil, cycle, insts
}

// auditRun is the optional full-fidelity comparison run's outcome.
type auditRun struct {
	stats pipeline.Stats
	cpi   float64
}

// runAudit runs the program at full fidelity under the same machine config —
// the measured truth a sampled estimate is validated against. Halt, fault
// and cycle-budget exhaustion are all measured outcomes (the same taxonomy
// full jobs cache); cancellation and deadline expiry are errors for the
// caller to map.
func (s *Server) runAudit(ctx context.Context, ex *execution, cfg pipeline.Config, spec api.JobSpec, prog *asm.Program) (*auditRun, error) {
	at0 := time.Now()
	asp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.audit", at0)
	finish := func(err error) error {
		if err != nil {
			asp.SetError(err.Error())
		}
		asp.EndAt(at0.Add(time.Since(at0)))
		return err
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return nil, finish(err)
	}
	budget := spec.MaxCycles
	if budget == 0 {
		budget = s.opt.MaxCycles
	}
	runErr := m.RunContext(ctx, budget)
	st := m.Stats
	asp.SetAttr("cycles", st.Cycles)
	asp.SetAttr("insts", st.Insts)
	asp.SetAttr("stop_reason", string(st.Stop))
	switch {
	case runErr == nil, st.Stop == pipeline.StopFault, st.Stop == pipeline.StopCycleLimit:
	default:
		return nil, finish(runErr)
	}
	if st.Insts == 0 {
		return nil, finish(fmt.Errorf("audit run retired no instructions"))
	}
	finish(nil)
	return &auditRun{stats: st, cpi: float64(st.Cycles) / float64(st.Insts)}, nil
}

// buildSampledResult marshals the extrapolation into canonical result bytes.
// Everything inside is a pure function of the spec — estimates, weights,
// interval measurements — so sampled results are as byte-reproducible and
// cacheable as full ones. Deliberately absent: whether the profile came from
// the cache (that lives in spans and server metrics; result bytes must not
// depend on cache temperature).
func (s *Server) buildSampledResult(ex *execution, plan *simpoint.Plan, est simpoint.Estimate, istats []pipeline.Stats, pkey string, audit *auditRun, cycle, insts uint64) (state, errMsg string, result []byte, c, i uint64) {
	s.sampledJobs.Add(1)
	ex.setTrace(api.StopSampled, "")
	mt := time.Now()
	msp := s.rec.StartSpanAt(ex.simSpan.Context(), "marshal", mt)
	if ferr := fpResultMarshal.Fire(); ferr != nil {
		msp.Event("fault_injected", "point", fpResultMarshal.Name(), "error", ferr.Error())
		msp.SetError(ferr.Error())
		msp.End()
		return api.StateFailed, fmt.Sprintf("marshal result: %v", ferr), nil, cycle, insts
	}
	points := make([]api.SampledPoint, len(plan.Points))
	for idx, pt := range plan.Points {
		points[idx] = api.SampledPoint{
			Index:  pt.Interval.Index,
			Weight: pt.Weight,
			Cycles: istats[idx].Cycles,
			Insts:  istats[idx].Insts,
			CPI:    float64(istats[idx].Cycles) / float64(istats[idx].Insts),
		}
	}
	sr := &api.SampledResult{
		Params:          *ex.spec.Sampled,
		ProfileKey:      pkey,
		Intervals:       plan.Intervals,
		TotalInsts:      plan.TotalInsts,
		Points:          points,
		CPI:             est.CPI,
		IPC:             est.IPC,
		EstimatedCycles: est.Cycles,
		ErrorBound:      est.ErrorBound,
	}
	metrics := map[string]any{
		"sampled.cpi":              est.CPI,
		"sampled.ipc":              est.IPC,
		"sampled.error_bound":      est.ErrorBound,
		"sampled.estimated_cycles": float64(est.Cycles),
		"sampled.total_insts":      float64(plan.TotalInsts),
		"sampled.intervals":        float64(plan.Intervals),
		"sampled.points":           float64(len(plan.Points)),
		"sampled.interval_len":     float64(ex.spec.Sampled.IntervalLen),
	}
	if audit != nil {
		sr.AuditCPI = audit.cpi
		sr.AuditErr = (est.CPI - audit.cpi) / audit.cpi
		sr.AuditStopReason = string(audit.stats.Stop)
		metrics["sampled.audit_cpi"] = audit.cpi
		metrics["sampled.audit_err"] = sr.AuditErr
	}
	res := api.Result{
		Key:        ex.key,
		Version:    api.Version,
		Spec:       ex.spec,
		StopReason: api.StopSampled,
		// The extrapolated whole-program view: what a full run of the
		// profiled execution is predicted to cost.
		Stats: pipeline.Stats{
			Cycles: est.Cycles,
			Insts:  plan.TotalInsts,
			Stop:   pipeline.StopReason(api.StopSampled),
		},
		Metrics: metrics,
		Sampled: sr,
	}
	b, err := json.Marshal(res)
	if err != nil {
		msp.SetError(err.Error())
		msp.End()
		return api.StateFailed, fmt.Sprintf("marshal result: %v", err), nil, cycle, insts
	}
	msp.SetAttr("bytes", len(b))
	msp.SetAttr("stop_reason", api.StopSampled)
	msp.End()
	return api.StateDone, "", b, cycle, insts
}

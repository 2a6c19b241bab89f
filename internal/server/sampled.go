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

// runSampled is the run simulate picks for the sampled fidelity: resolve the
// plan (profile store), fan the intervals out under the job's context, and
// recombine. It simulates nothing else: the measured error of an estimate
// is a comparison with the full job of the same spec, which the result
// store caches like any other. The result it returns is a pure function of
// the spec — estimates, weights, interval measurements — so sampled results
// are as byte-reproducible and cacheable as full ones; whether the profile
// came from the store lives only in spans and server metrics. It also
// returns the cycles and instructions it simulated.
func (s *Server) runSampled(ctx context.Context, ex *execution, cfg pipeline.Config, prog *asm.Program) (res api.Result, cycle, insts uint64, err error) {
	spec := ex.spec
	pkey, err := spec.ProfileKey()
	if err != nil {
		return res, 0, 0, err
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
		return res, 0, 0, fmt.Errorf("sampled profile: %w", err)
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
			// A task still unclaimed when the job ends skips the checkpoint
			// restore; a running one stops at its next context poll.
			ierrs[i] = ctx.Err()
			if ierrs[i] == nil {
				istats[i], ierrs[i] = plan.SimulatePoint(ctx, i, cfg, prog)
			}
			d := time.Since(it0)
			isp.SetAttr("cycles", istats[i].Cycles)
			isp.SetAttr("insts", istats[i].Insts)
			if ierrs[i] != nil {
				isp.SetError(ierrs[i].Error())
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
		if ierr != nil {
			return res, cycle, insts, fmt.Errorf("sampled interval %d: %w", plan.Points[i].Interval.Index, ierr)
		}
	}
	est, err := plan.Estimate(istats)
	if err != nil {
		return res, cycle, insts, err
	}

	points := make([]api.SampledPoint, n)
	for i, pt := range plan.Points {
		points[i] = api.SampledPoint{
			Index:  pt.Interval.Index,
			Weight: pt.Weight,
			Cycles: istats[i].Cycles,
			Insts:  istats[i].Insts,
			CPI:    float64(istats[i].Cycles) / float64(istats[i].Insts),
		}
	}
	ex.progress(cycle, insts, est.IPC)
	s.sampledJobs.Add(1)
	return api.Result{
		StopReason: api.StopSampled,
		// The extrapolated whole-program view: what a full run of the
		// profiled execution is predicted to cost.
		Stats: pipeline.Stats{
			Cycles: est.Cycles,
			Insts:  plan.TotalInsts,
			Stop:   pipeline.StopReason(api.StopSampled),
		},
		Metrics: map[string]any{
			"sampled.cpi":              est.CPI,
			"sampled.ipc":              est.IPC,
			"sampled.error_bound":      est.ErrorBound,
			"sampled.estimated_cycles": float64(est.Cycles),
			"sampled.total_insts":      float64(plan.TotalInsts),
			"sampled.intervals":        float64(plan.Intervals),
			"sampled.points":           float64(n),
			"sampled.interval_len":     float64(spec.Sampled.IntervalLen),
		},
		Sampled: &api.SampledResult{
			Params:          *spec.Sampled,
			ProfileKey:      pkey,
			Intervals:       plan.Intervals,
			TotalInsts:      plan.TotalInsts,
			Points:          points,
			CPI:             est.CPI,
			IPC:             est.IPC,
			EstimatedCycles: est.Cycles,
			ErrorBound:      est.ErrorBound,
		},
	}, cycle, insts, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"specmpk/internal/asm"
	"specmpk/internal/cluster"
	"specmpk/internal/otrace"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
)

// decomposer replays timed jobs single-threaded by calling each layer's
// public function directly, in the order a worker calls them, with one span
// around each call. A job's spans hang off one "job" root, so the layers'
// self times partition the job's direct-call time.
type decomposer struct {
	rec *otrace.Recorder
	t   *tally
	// plan is the current program's sampled plan: like the server's
	// profile cache, a program's first policy builds it and the other
	// policies reuse it.
	planKey string
	plan    *simpoint.Plan
	// Go mallocs and simulated cycles across every pipeline.Run call.
	mallocs, cycles uint64
	// cl is set on service-cluster: keys a peer owns run through the
	// coordinator, as the worker's forward hop does.
	cl *clusterEnv
}

// span times fn under a span named name, parented on parent.
func (d *decomposer) span(parent otrace.SpanContext, name string, fn func(sp *otrace.Span)) {
	sp := d.rec.StartSpan(parent, name)
	fn(sp)
	sp.End()
}

// replay decomposes the given timed jobs, in order, until budget runs out.
// It returns the indices it replayed.
func (d *decomposer) replay(recs []record, budget time.Duration) []int {
	sorted := append([]record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	deadline := time.Now().Add(budget)
	var done []int
	for _, r := range sorted {
		if !r.simulated {
			continue
		}
		if len(done) > 0 && time.Now().After(deadline) {
			break
		}
		err := d.job(r)
		if err == nil && d.cl != nil {
			err = d.probeServer(r.spec)
		}
		d.t.attempt("decompose", err)
		if err == nil {
			done = append(done, r.index)
		}
	}
	return done
}

func (d *decomposer) job(r record) error {
	spec := r.spec
	if d.cl != nil {
		// Fresh key, same work: one more cycle of budget is a key no node
		// has cached.
		spec.MaxCycles++
	}
	root := d.rec.StartSpan(otrace.SpanContext{}, "job")
	root.SetAttr("index", r.index)
	defer root.End()
	pc := root.Context()

	var norm api.JobSpec
	var key string
	var err error
	d.span(pc, "api.Key", func(*otrace.Span) {
		if norm, err = spec.Normalize(); err == nil {
			key, err = norm.Key()
		}
	})
	if err != nil {
		return err
	}
	if d.cl != nil && d.cl.coord.Remote(key) {
		return d.remote(pc, key, norm)
	}
	cfg, err := norm.MachineConfig()
	if err != nil {
		return err
	}
	var prog *asm.Program
	d.span(pc, "workload.Program", func(*otrace.Span) { prog, err = norm.Program() })
	if err != nil {
		return err
	}
	if norm.Fidelity == api.FidelitySampled {
		return d.sampled(pc, key, norm, cfg, prog)
	}
	return d.full(pc, key, norm, cfg, prog)
}

func (d *decomposer) full(pc otrace.SpanContext, key string, spec api.JobSpec, cfg pipeline.Config, prog *asm.Program) error {
	var m *pipeline.Machine
	var err error
	d.span(pc, "pipeline.New", func(*otrace.Span) { m, err = pipeline.New(cfg, prog) })
	if err != nil {
		return err
	}
	budget := spec.MaxCycles
	if budget == 0 {
		budget = serverMaxCycles
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.span(pc, "pipeline.Run", func(sp *otrace.Span) {
		err = m.Run(budget)
		sp.SetAttr("policy", spec.Mode)
		sp.SetAttr("cycles", m.Stats.Cycles)
	})
	runtime.ReadMemStats(&after)
	d.mallocs += after.Mallocs - before.Mallocs
	d.cycles += m.Stats.Cycles
	if err != nil && m.Stats.Stop != pipeline.StopCycleLimit {
		return err
	}
	d.span(pc, "pipeline.result", func(*otrace.Span) {
		_, err = json.Marshal(api.Result{
			Key: key, Version: api.Version, Spec: spec, StopReason: string(m.Stats.Stop),
			Stats: m.Stats, Metrics: m.StatsRegistry().Snapshot().Flat(),
		})
	})
	if err != nil {
		return err
	}
	if m.Stats.CPI.Sum() != m.Stats.Cycles {
		return fmt.Errorf("CPI stack sums to %d of %d cycles", m.Stats.CPI.Sum(), m.Stats.Cycles)
	}
	return nil
}

func (d *decomposer) sampled(pc otrace.SpanContext, key string, spec api.JobSpec, cfg pipeline.Config, prog *asm.Program) error {
	pkey, err := spec.ProfileKey()
	if err != nil {
		return err
	}
	scfg := spec.Sampled.SimPointConfig()
	if pkey != d.planKey {
		// simpoint.BuildPlan, one call at a time.
		var intervals []simpoint.Interval
		d.span(pc, "simpoint.Profile", func(sp *otrace.Span) {
			intervals, err = simpoint.Profile(prog, scfg)
			sp.SetAttr("insts", uint64(len(intervals))*scfg.IntervalLen)
		})
		if err != nil {
			return err
		}
		var points []simpoint.Point
		d.span(pc, "simpoint.Choose", func(*otrace.Span) { points = simpoint.Choose(intervals, scfg) })
		sort.SliceStable(points, func(i, j int) bool {
			if points[i].Weight != points[j].Weight {
				return points[i].Weight > points[j].Weight
			}
			return points[i].Interval.Index < points[j].Interval.Index
		})
		idx := make([]uint64, len(points))
		for i, p := range points {
			idx[i] = p.Interval.Index
		}
		var cps []*simpoint.Checkpoint
		d.span(pc, "simpoint.CaptureCheckpoints", func(*otrace.Span) {
			cps, err = simpoint.CaptureCheckpoints(prog, scfg, idx)
		})
		if err != nil {
			return err
		}
		d.planKey = pkey
		d.plan = &simpoint.Plan{
			Cfg: scfg, Intervals: len(intervals), TotalInsts: uint64(len(intervals)) * scfg.IntervalLen,
			Points: points, Checkpoints: cps,
		}
	}
	plan := d.plan
	stats := make([]pipeline.Stats, len(plan.Points))
	for i := range plan.Points {
		var m *pipeline.Machine
		d.span(pc, "simpoint.NewMachine", func(*otrace.Span) { m, err = plan.Checkpoints[i].NewMachine(cfg, prog) })
		if err != nil {
			return err
		}
		d.span(pc, "pipeline.RunInsts", func(sp *otrace.Span) {
			err = m.RunInsts(scfg.IntervalLen, scfg.IntervalLen*800+400_000)
			sp.SetAttr("policy", spec.Mode)
			sp.SetAttr("cycles", m.Stats.Cycles)
		})
		if err != nil {
			return err
		}
		stats[i] = m.Stats
	}
	var sr *api.SampledResult
	d.span(pc, "pipeline.result", func(*otrace.Span) {
		var est simpoint.Estimate
		if est, err = plan.Estimate(stats); err != nil {
			return
		}
		points := make([]api.SampledPoint, len(plan.Points))
		for i, p := range plan.Points {
			points[i] = api.SampledPoint{
				Index: p.Interval.Index, Weight: p.Weight, Cycles: stats[i].Cycles, Insts: stats[i].Insts,
				CPI: float64(stats[i].Cycles) / float64(stats[i].Insts),
			}
		}
		sr = &api.SampledResult{
			Params: *spec.Sampled, ProfileKey: pkey, Intervals: plan.Intervals, TotalInsts: plan.TotalInsts,
			Points: points, CPI: est.CPI, IPC: est.IPC, EstimatedCycles: est.Cycles, ErrorBound: est.ErrorBound,
		}
		_, err = json.Marshal(api.Result{Key: key, Version: api.Version, Spec: spec, StopReason: api.StopSampled, Sampled: sr})
	})
	if err != nil {
		return err
	}
	return verifySampled(sr)
}

// remote runs a peer-owned key through the coordinator's forward hop, after
// a separate probe of the peer's cache for that fresh key (a miss).
func (d *decomposer) remote(pc otrace.SpanContext, key string, spec api.JobSpec) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var err error
	d.span(otrace.SpanContext{}, "client.CachedResult", func(sp *otrace.Span) {
		var hit bool
		_, hit, err = d.cl.clB.CachedResult(ctx, key)
		sp.SetAttr("hit", hit)
	})
	if err != nil {
		return err
	}
	var res api.Result
	d.span(pc, "cluster.RunRemote", func(*otrace.Span) {
		var out cluster.RemoteResult
		if out, err = d.cl.coord.RunRemote(ctx, key, spec); err == nil {
			err = json.Unmarshal(out.Raw, &res)
		}
	})
	if err != nil {
		return err
	}
	return verifyResult(res)
}

// probeServer times the in-process Server.Submit on node A for both
// dispositions: a fresh key (miss; its execution is awaited untimed) and
// the same key again (hit).
func (d *decomposer) probeServer(spec api.JobSpec) error {
	spec.MaxCycles += 2 // a key neither the timed nor the replayed job used
	srv := d.cl.a.srv
	for _, want := range []string{"miss", "hit"} {
		var info api.JobInfo
		var err error
		d.span(otrace.SpanContext{}, "server.Submit", func(sp *otrace.Span) {
			info, err = srv.Submit(spec)
			sp.SetAttr("disposition", disposition(info))
		})
		if err != nil {
			return err
		}
		if got := disposition(info); got != want && !(want == "hit" && got == "dedup") {
			return fmt.Errorf("in-process submit %s: disposition %s, want %s", info.ID, got, want)
		}
		if ch, cancel, ok := srv.Subscribe(info.ID); ok {
			for range ch {
			}
			cancel()
		}
		if info, _ = srv.Job(info.ID); info.State != api.StateDone {
			return fmt.Errorf("in-process job %s ended %s: %s", info.ID, info.State, info.Error)
		}
	}
	return nil
}

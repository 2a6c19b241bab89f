package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
)

// sampledSpec is a laptop-scale sampled job on a catalogue workload: small
// intervals keep the per-point detailed simulations fast while leaving
// enough of them for clustering to matter.
func sampledSpec(mode string) api.JobSpec {
	return api.JobSpec{
		Workload: "541.leela_r",
		Mode:     mode,
		Fidelity: api.FidelitySampled,
		Sampled:  &api.SampledParams{IntervalLen: 5_000, MaxInsts: 200_000, K: 5, Seed: 1},
	}
}

func sampledResult(t *testing.T, info api.JobInfo) api.Result {
	t.Helper()
	if info.State != api.StateDone {
		t.Fatalf("job state %s (err %q), want done", info.State, info.Error)
	}
	var res api.Result
	if err := json.Unmarshal(info.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	return res
}

func TestSampledJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	info, err := s.Submit(sampledSpec("specmpk"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := sampledResult(t, waitJob(t, s, info.ID))

	if res.StopReason != api.StopSampled {
		t.Fatalf("stop reason %q, want %q", res.StopReason, api.StopSampled)
	}
	sr := res.Sampled
	if sr == nil {
		t.Fatal("result has no sampled section")
	}
	if sr.CPI <= 0 || sr.IPC <= 0 || math.Abs(sr.CPI*sr.IPC-1) > 1e-9 {
		t.Fatalf("inconsistent CPI %v / IPC %v", sr.CPI, sr.IPC)
	}
	if sr.ErrorBound <= 0 {
		t.Fatalf("error bound %v, want positive", sr.ErrorBound)
	}
	if sr.Intervals <= 0 || sr.TotalInsts == 0 {
		t.Fatalf("profile coverage intervals=%d totalInsts=%d", sr.Intervals, sr.TotalInsts)
	}
	if len(sr.Points) == 0 || len(sr.Points) > sr.Intervals {
		t.Fatalf("%d points for %d intervals", len(sr.Points), sr.Intervals)
	}
	var wSum float64
	for _, pt := range sr.Points {
		if pt.Insts == 0 {
			t.Fatalf("point %d retired no instructions", pt.Index)
		}
		wSum += pt.Weight
	}
	if math.Abs(wSum-1) > 1e-9 {
		t.Fatalf("point weights sum to %v, want 1", wSum)
	}
	if res.Stats.Cycles != sr.EstimatedCycles || res.Stats.Insts != sr.TotalInsts {
		t.Fatalf("top-level stats (%d cycles, %d insts) disagree with sampled section (%d, %d)",
			res.Stats.Cycles, res.Stats.Insts, sr.EstimatedCycles, sr.TotalInsts)
	}
	if got := s.sampledIntervals.Load(); got != uint64(len(sr.Points)) {
		t.Fatalf("server.sampled.intervals = %d, want %d", got, len(sr.Points))
	}
	if got := s.sampledJobs.Load(); got != 1 {
		t.Fatalf("server.sampled.jobs = %d, want 1", got)
	}
}

// TestSampledCPIWithinErrorBound is the accuracy pin: a full job of the same
// program on the same server measures the full-fidelity CPI, and the sampled
// estimate's relative error against it must fall inside the reported bound
// (and the bound itself must stay useful, not degenerate).
func TestSampledCPIWithinErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the program at full fidelity")
	}
	s := newTestServer(t, Options{Workers: 4})
	spec := sampledSpec("specmpk")
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sr := sampledResult(t, waitJob(t, s, info.ID)).Sampled
	if sr == nil {
		t.Fatal("result has no sampled section")
	}
	spec.Fidelity, spec.Sampled = api.FidelityFull, nil
	info, err = s.Submit(spec)
	if err != nil {
		t.Fatalf("submit full: %v", err)
	}
	full := sampledResult(t, waitJob(t, s, info.ID))
	if full.StopReason != "halt" || full.Stats.Insts == 0 {
		t.Fatalf("full job stopped with %q after %d insts", full.StopReason, full.Stats.Insts)
	}
	fullCPI := float64(full.Stats.Cycles) / float64(full.Stats.Insts)
	measured := (sr.CPI - fullCPI) / fullCPI
	t.Logf("sampled CPI %.4f, full CPI %.4f, measured err %+.2f%%, bound ±%.2f%%",
		sr.CPI, fullCPI, 100*measured, 100*sr.ErrorBound)
	if math.Abs(measured) > sr.ErrorBound {
		t.Fatalf("measured error %+.2f%% outside reported bound ±%.2f%%",
			100*measured, 100*sr.ErrorBound)
	}
	if sr.ErrorBound > 1.0 {
		t.Fatalf("error bound ±%.0f%% is useless", 100*sr.ErrorBound)
	}
}

// TestSampledProfileCacheReuse: two sampled jobs differing only in policy
// mode share one profiling pass — the profile key excludes the machine
// config, so the second job hits the plan cache.
func TestSampledProfileCacheReuse(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	for _, mode := range []string{"specmpk", "serialized"} {
		info, err := s.Submit(sampledSpec(mode))
		if err != nil {
			t.Fatalf("submit %s: %v", mode, err)
		}
		sampledResult(t, waitJob(t, s, info.ID))
	}
	snap := s.Registry().Snapshot()
	if misses := snap.Number("server.sampled.profile_cache_misses"); misses != 1 {
		t.Fatalf("profile cache misses = %v, want 1 (one build for two modes)", misses)
	}
	if hits := snap.Number("server.sampled.profile_cache_hits"); hits != 1 {
		t.Fatalf("profile cache hits = %v, want 1", hits)
	}
	k1, err := sampledSpec("specmpk").ProfileKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := sampledSpec("serialized").ProfileKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("profile keys differ across modes:\n%s\n%s", k1, k2)
	}
}

// TestSampledIntervalsRunAcrossPool: with idle workers available, at least
// one of a sampled job's intervals is stolen off the sub-queue instead of
// running inline on the owning worker — the concurrency the fan-out exists
// for. Stealing is a race by design, so retry with fresh specs (distinct
// cluster seeds) a few times before declaring it broken.
func TestSampledIntervalsRunAcrossPool(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	for attempt := 0; attempt < 5; attempt++ {
		spec := sampledSpec("specmpk")
		spec.Sampled.Seed = int64(attempt + 1)
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		sampledResult(t, waitJob(t, s, info.ID))
		if s.sampledStolen.Load() > 0 {
			return
		}
	}
	t.Fatalf("no interval stolen by an idle worker across 5 sampled jobs (intervals=%d)",
		s.sampledIntervals.Load())
}

// TestSampledResultDeterministic: two independent servers produce
// byte-identical sampled results for the same spec — nothing host- or
// cache-temperature-dependent (wall times, profile-cache state) leaks into
// the canonical bytes.
func TestSampledResultDeterministic(t *testing.T) {
	run := func() []byte {
		s := newTestServer(t, Options{Workers: 3})
		info, err := s.Submit(sampledSpec("specmpk"))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return waitJob(t, s, info.ID).Result
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("sampled result bytes differ across servers:\n%s\n---\n%s", a, b)
	}
}

// TestSampledAndFullNeverShareCacheEntries: the fidelity knob is part of the
// job key, so a sampled job never answers from a full job's cache entry (or
// vice versa), while identical sampled resubmissions do hit.
func TestSampledAndFullNeverShareCacheEntries(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	full := api.JobSpec{Workload: "541.leela_r", Mode: "specmpk", MaxCycles: 300_000}
	fullInfo, err := s.Submit(full)
	if err != nil {
		t.Fatalf("submit full: %v", err)
	}
	fullRes := sampledResult(t, waitJob(t, s, fullInfo.ID))
	if fullRes.Sampled != nil || fullRes.StopReason == api.StopSampled {
		t.Fatalf("full job produced a sampled result (stop %q)", fullRes.StopReason)
	}

	sampled := sampledSpec("specmpk")
	sInfo, err := s.Submit(sampled)
	if err != nil {
		t.Fatalf("submit sampled: %v", err)
	}
	if sInfo.Cached {
		t.Fatal("sampled job served from the full job's cache entry")
	}
	if sInfo.Key == fullInfo.Key {
		t.Fatal("sampled and full specs share a cache key")
	}
	sRes := sampledResult(t, waitJob(t, s, sInfo.ID))
	if sRes.Sampled == nil {
		t.Fatal("sampled job lost its sampled section")
	}

	again, err := s.Submit(sampled)
	if err != nil {
		t.Fatalf("resubmit sampled: %v", err)
	}
	agInfo := waitJob(t, s, again.ID)
	if !agInfo.Cached {
		t.Fatal("identical sampled resubmission missed the result cache")
	}
	if !bytes.Equal(agInfo.Result, waitJob(t, s, sInfo.ID).Result) {
		t.Fatal("cached sampled result differs from the original bytes")
	}

	fullAgain, err := s.Submit(full)
	if err != nil {
		t.Fatalf("resubmit full: %v", err)
	}
	faInfo := waitJob(t, s, fullAgain.ID)
	if !faInfo.Cached {
		t.Fatal("identical full resubmission missed the result cache")
	}
	var faRes api.Result
	if err := json.Unmarshal(faInfo.Result, &faRes); err != nil {
		t.Fatal(err)
	}
	if faRes.Sampled != nil {
		t.Fatal("full job's cached result carries a sampled section")
	}
}

// TestSampledJobCancellable: a sampled job wedged behind a tiny wall budget
// resolves (failed, "deadline") instead of hanging the worker.
func TestSampledWallDeadline(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	spec := sampledSpec("specmpk")
	spec.MaxWallMS = 1
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitJob(t, s, info.ID)
	switch final.State {
	case api.StateFailed:
		// deadline — expected on any host where 1 ms is not enough.
	case api.StateDone:
		// A very fast host finished inside the budget; also legal.
	default:
		t.Fatalf("state %s, want failed or done", final.State)
	}
	// Either way the worker must be free again: a follow-up job completes.
	follow, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatalf("submit follow-up: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		inf, ok := s.Job(follow.ID)
		if ok && api.Terminal(inf.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follow-up job did not finish; worker wedged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// twoPhaseAsm runs one loop for the first 2^22 instructions and another
// loop after them, so the plan longIntervalSpec profiles over it picks two
// simulation points. Each is one 2^22-instruction interval: hundreds of
// milliseconds of detailed simulation, long enough for a Cancel or a
// deadline to land inside it.
const twoPhaseAsm = `
main:
    movi t1, 1398101
first:
    addi t0, t0, 1
    addi t1, t1, -1
    bne t1, zero, first
second:
    addi t2, t2, 1
    jmp second
`

func longIntervalSpec() api.JobSpec {
	return api.JobSpec{
		Asm:      twoPhaseAsm,
		Fidelity: api.FidelitySampled,
		Sampled:  &api.SampledParams{IntervalLen: api.MaxSampledIntervalLen, MaxInsts: 1 << 23, K: 4, Seed: 1},
	}
}

// longIntervalPlan is longIntervalSpec's plan, built once per test binary:
// under -race the profiling pass takes seconds.
var longIntervalPlan = sync.OnceValues(func() (*simpoint.Plan, error) {
	spec, err := longIntervalSpec().Normalize()
	if err != nil {
		return nil, err
	}
	prog, err := spec.Program()
	if err != nil {
		return nil, err
	}
	return simpoint.BuildPlan(prog, spec.Sampled.SimPointConfig())
})

// warmLongIntervalProfile puts longIntervalPlan into s's profile store, so
// a longIntervalSpec job starts simulating intervals as soon as it runs.
func warmLongIntervalProfile(t *testing.T, s *Server) {
	t.Helper()
	pkey, err := longIntervalSpec().ProfileKey()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := s.profile(pkey, longIntervalPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 2 {
		t.Fatalf("plan has %d points, want 2", len(plan.Points))
	}
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// freeWorkerBound is how soon after a Cancel or deadline a sampled job's
// workers must be free again. An interval polls its context every 1,024
// cycles, so it stops within milliseconds even under -race; one that ran to
// its end would keep its worker for most of a second.
const freeWorkerBound = 300 * time.Millisecond

// TestDeadlineStopsSampledInterval: the wall-clock deadline reaches into the
// running intervals, one of them stolen by the second worker, so the job
// fails "deadline:" near its budget instead of finishing both and ending
// done.
func TestDeadlineStopsSampledInterval(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	warmLongIntervalProfile(t, s)
	spec := longIntervalSpec()
	spec.MaxWallMS = 100
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateFailed || !strings.HasPrefix(final.Error, "deadline:") {
		t.Fatalf("state=%s err=%q, want a deadline failure", final.State, final.Error)
	}
	if limit := float64(spec.MaxWallMS) + ms(freeWorkerBound); final.WallMS > limit {
		t.Fatalf("the job ran %.0f ms under a %d ms deadline, want < %.0f ms", final.WallMS, spec.MaxWallMS, limit)
	}
	if got := s.jobsDeadline.Load(); got != 1 {
		t.Fatalf("jobs_deadline = %d, want 1", got)
	}
}

// TestSampledCancelFreesWorker: a Cancel stops the interval running on the
// only worker, which then serves the next job at once.
func TestSampledCancelFreesWorker(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	warmLongIntervalProfile(t, s)
	info, err := s.Submit(longIntervalSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an interval to start", func() bool { return s.sampledIntervals.Load() > 0 })
	t0 := time.Now()
	if _, ok := s.Cancel(info.ID); !ok {
		t.Fatal("cancel: unknown job")
	}
	next, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, s, next.ID); got.State != api.StateDone {
		t.Fatalf("post-cancel job state %s, want done", got.State)
	}
	if d := time.Since(t0); d > freeWorkerBound {
		t.Fatalf("the worker took %v after the Cancel to run a trivial job, want < %v", d, freeWorkerBound)
	}
	if final := waitJob(t, s, info.ID); final.State != api.StateCancelled {
		t.Fatalf("cancelled job state %s", final.State)
	}
}

// TestSampledCancelFreesStealingWorker: when another worker stole one of
// the cancelled job's intervals, both workers stop and take new jobs.
func TestSampledCancelFreesStealingWorker(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	warmLongIntervalProfile(t, s)
	info, err := s.Submit(longIntervalSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a stolen interval", func() bool { return s.sampledStolen.Load() > 0 })
	waitFor(t, "two running intervals", func() bool { return s.sampledIntervals.Load() >= 2 })
	t0 := time.Now()
	if _, ok := s.Cancel(info.ID); !ok {
		t.Fatal("cancel: unknown job")
	}
	// Two jobs that never halt can both be running only on two free workers.
	var ids []string
	for i := 0; i < 2; i++ {
		next, err := s.Submit(uniqueSpec(i, 1<<40))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, next.ID)
		t.Cleanup(func() { s.Cancel(next.ID) })
	}
	waitFor(t, "both workers to take a new job", func() bool {
		for _, id := range ids {
			if cur, _ := s.Job(id); cur.State != api.StateRunning {
				return false
			}
		}
		return true
	})
	if d := time.Since(t0); d > freeWorkerBound {
		t.Fatalf("both workers were free %v after the Cancel, want < %v", d, freeWorkerBound)
	}
}

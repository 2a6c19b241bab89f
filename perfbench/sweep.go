package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/pipeline"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
)

// sweepEnv serves policy-sweep and sampled-sweep: an in-process server with
// two workers, driven through Submit + Subscribe.
type sweepEnv struct {
	g       grid
	srv     *server.Server
	clients int
	t       *tally
	groups  *policyGroups
	// next is the next timed job index; a second window continues the
	// sequence, so no two timed jobs share a key.
	next int
}

// sweepWorkers is the simulating pool of both sweeps: one worker per vCPU
// of the 2-vCPU reference host.
const sweepWorkers = 2

func setupSweep(seed int64, sampled bool, t *tally) (*sweepEnv, error) {
	programs, err := programsLongestFirst()
	if err != nil {
		return nil, err
	}
	e := &sweepEnv{
		g: grid{
			seed: seed, stream: streamTimed, programs: programs,
			policies: policies(), sampled: sampled,
		},
		srv:    server.New(server.Options{Workers: sweepWorkers, Logger: discardLogger()}),
		t:      t,
		groups: newPolicyGroups(),
	}
	// policy-sweep: two clients keep both workers busy with whole jobs.
	// sampled-sweep: one client, whose job's intervals fan out across both.
	e.clients = sweepWorkers
	if sampled {
		e.clients = 1
	}
	// Warm-up: the shortest program under every policy, capped, on the
	// warm-up seed stream, so its keys and profile never serve a timed job.
	warm := grid{
		seed: seed, stream: streamWarm, programs: programs[len(programs)-1:],
		policies: e.g.policies, sampled: sampled, maxCycles: 20_000,
	}
	errs := make(chan error, warm.size())
	for i := 0; i < warm.size(); i++ {
		go func(spec api.JobSpec) {
			info, err := e.submitWait(nil, otrace.SpanContext{}, spec)
			if err == nil {
				_, err = verifyJob(info)
			}
			errs <- err
		}(warm.spec(i))
	}
	var werr error
	for i := 0; i < warm.size(); i++ {
		if err := <-errs; err != nil && werr == nil {
			werr = fmt.Errorf("warm-up: %w", err)
		}
	}
	if werr != nil {
		e.close()
		return nil, werr
	}
	return e, nil
}

// submitWait submits in-process and waits on the job's event stream.
func (e *sweepEnv) submitWait(rec *otrace.Recorder, parent otrace.SpanContext, spec api.JobSpec) (api.JobInfo, error) {
	sp := rec.StartSpan(parent, "server.Submit")
	info, err := e.srv.Submit(spec)
	sp.SetAttr("disposition", disposition(info))
	sp.End()
	if err != nil || api.Terminal(info.State) {
		return info, err
	}
	wsp := rec.StartSpan(parent, "server.wait")
	defer wsp.End()
	ch, cancel, ok := e.srv.Subscribe(info.ID)
	if !ok {
		return info, fmt.Errorf("job %s unknown to the server", info.ID)
	}
	for range ch {
	}
	cancel()
	if info, ok = e.srv.Job(info.ID); !ok {
		return info, fmt.Errorf("job %s unknown to the server", info.ID)
	}
	return info, nil
}

// Reference-host rates, which size a window's job list (see runWindow).
const (
	policySweepJobsPerS  = 9
	sampledSweepJobsPerS = 13
)

// window runs whole passes over the grid, continuing the job sequence of
// any earlier window.
func (e *sweepEnv) window(rec *otrace.Recorder, d time.Duration) windowResult {
	rate := float64(policySweepJobsPerS)
	if e.g.sampled {
		rate = sampledSweepJobsPerS
	}
	var mu sync.Mutex
	end := e.next + jobsFor(d, rate, e.g.size())
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if e.next == end {
			return 0, false
		}
		e.next++
		return e.next - 1, true
	}
	return runWindow(e.clients, func(_ int, add func(record)) {
		for {
			i, ok := take()
			if !ok {
				return
			}
			spec := e.g.spec(i)
			root := request(rec, i, "job")
			t0 := time.Now()
			info, err := e.submitWait(rec, root.Context(), spec)
			var res api.Result
			if err == nil {
				res, err = verifyJob(info)
			}
			lat := msSince(t0)
			root.End()
			e.t.attempt("job", err)
			if err != nil {
				continue
			}
			if !e.g.sampled {
				e.groups.add(spec, res.Stats.Insts)
			}
			add(record{
				index: i, spec: spec, simulated: true, latencyMS: lat,
				queueMS: info.QueueWaitMS, stats: res.Stats, sampled: res.Sampled,
			})
		}
	})
}

func (e *sweepEnv) counters() map[string]float64 {
	snap := e.srv.Registry().Snapshot()
	out := make(map[string]float64)
	for _, n := range []string{
		"server.sampled.profile_cache_hits", "server.sampled.profile_cache_misses",
		"server.sampled.intervals", "server.sampled.intervals_stolen",
		"server.cache.evictions",
	} {
		out[n] = snap.Number(n)
	}
	return out
}

func (e *sweepEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a timed-out drain cancels what is left; nothing to report
}

// referencePrograms are the programs whose sampled estimates are audited
// against full-fidelity runs after the timed window.
var referencePrograms = []string{"505.mcf_r", "520.omnetpp_r", "403.gcc"}

// accuracy is the audit of sampled estimates against full-fidelity runs.
type accuracy struct {
	cells       int
	meanErrPct  float64
	boundMisses int
}

// sampledAccuracy runs, for the first timed group of each reference
// program, the same five specs at full fidelity (two at a time, after the
// window) and compares CPI. The runs go to halt, so they also check that
// the five policies retire the same instructions.
func (e *sweepEnv) sampledAccuracy(recs []record) (accuracy, error) {
	type cell struct {
		spec    api.JobSpec
		sampled *api.SampledResult
		fullCPI float64
		insts   uint64
		err     error
	}
	var cells []*cell
	for _, prog := range referencePrograms {
		group := -1
		for _, r := range recs {
			if r.spec.Workload == prog && (group < 0 || r.index/len(e.g.policies) < group) {
				group = r.index / len(e.g.policies)
			}
		}
		n := 0
		for _, r := range recs {
			if r.index/len(e.g.policies) == group && r.sampled != nil {
				cells = append(cells, &cell{spec: r.spec, sampled: r.sampled})
				n++
			}
		}
		if n != len(e.g.policies) {
			return accuracy{}, fmt.Errorf("sampled reference: %s has %d of %d policies in the window", prog, n, len(e.g.policies))
		}
	}
	work := make(chan *cell)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				full := c.spec
				full.Fidelity = ""
				var st pipeline.Stats
				st, c.err = runToHalt(full)
				c.insts = st.Insts
				if c.err == nil {
					c.fullCPI = float64(st.Cycles) / float64(st.Insts)
				}
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()

	var a accuracy
	groups := newPolicyGroups()
	var sum float64
	for _, c := range cells {
		e.t.attempt("reference", c.err)
		if c.err != nil {
			continue
		}
		groups.add(c.spec, c.insts)
		rel := math.Abs(c.sampled.CPI-c.fullCPI) / c.fullCPI
		sum += rel
		a.cells++
		if rel > c.sampled.ErrorBound {
			a.boundMisses++
		}
	}
	groups.check(e.t, len(e.g.policies))
	if a.cells > 0 {
		a.meanErrPct = 100 * sum / float64(a.cells)
	}
	return a, nil
}

// runToHalt simulates a full-fidelity spec directly on the pipeline and
// checks it halted with an exact CPI stack.
func runToHalt(spec api.JobSpec) (pipeline.Stats, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return pipeline.Stats{}, err
	}
	cfg, err := norm.MachineConfig()
	if err != nil {
		return pipeline.Stats{}, err
	}
	prog, err := norm.Program()
	if err != nil {
		return pipeline.Stats{}, err
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return pipeline.Stats{}, err
	}
	if err := m.Run(serverMaxCycles); err != nil {
		return m.Stats, fmt.Errorf("%s/%s: %w", spec.Workload, spec.Mode, err)
	}
	if m.Stats.Stop != pipeline.StopHalt {
		return m.Stats, fmt.Errorf("%s/%s stopped on %s", spec.Workload, spec.Mode, m.Stats.Stop)
	}
	if m.Stats.CPI.Sum() != m.Stats.Cycles {
		return m.Stats, fmt.Errorf("%s/%s: CPI stack sums to %d of %d cycles", spec.Workload, spec.Mode, m.Stats.CPI.Sum(), m.Stats.Cycles)
	}
	return m.Stats, nil
}

// serverMaxCycles is the server's default per-job cycle budget, which the
// direct-call paths apply to specs that set none.
const serverMaxCycles = 500_000_000

package main

import (
	"encoding/json"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// finishedJob simulates one capped job directly and wraps its canonical
// result the way the server reports a finished job.
func finishedJob(t *testing.T, spec api.JobSpec) api.JobInfo {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := norm.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := norm.Program()
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Run(norm.MaxCycles) // stops on the cycle budget, by design
	b, err := json.Marshal(api.Result{
		Version: api.Version, Spec: norm, StopReason: string(m.Stats.Stop),
		Stats: m.Stats, Metrics: m.StatsRegistry().Snapshot().Flat(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return api.JobInfo{ID: "j-1", State: api.StateDone, Result: b}
}

// TestCorruptedAnswersCounted corrupts one answer per check and sees each
// counted as a failure against the attempts, while the intact answers pass.
func TestCorruptedAnswersCounted(t *testing.T) {
	good := finishedJob(t, api.JobSpec{Workload: "541.leela_r", Mode: "specmpk", MaxCycles: 5_000})
	tl := newTally()
	_, err := verifyJob(good)
	tl.attempt("job", err)

	// One CPI bucket off by a cycle.
	var raw map[string]any
	if err := json.Unmarshal(good.Result, &raw); err != nil {
		t.Fatal(err)
	}
	metrics := raw["metrics"].(map[string]any)
	metrics["pipeline.cpi.memory"] = metrics["pipeline.cpi.memory"].(float64) + 1
	bad := good
	if bad.Result, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	_, err = verifyJob(bad)
	tl.attempt("job", err)

	// A job that did not end done.
	_, err = verifyJob(api.JobInfo{ID: "j-2", State: api.StateFailed, Error: "boom"})
	tl.attempt("job", err)

	// A resubmission whose bytes differ from the first answer's.
	first, err := resultDigest(good.Result)
	if err != nil {
		t.Fatal(err)
	}
	again, err := resultDigest(bad.Result)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("corrupted result hashes like the original")
	}

	// A sampled result with a point chosen twice, and one with no bound.
	sampled := api.SampledResult{
		Params: api.DefaultSampledParams(), Intervals: 10, CPI: 1.2, ErrorBound: 0.25,
		Points: []api.SampledPoint{{Index: 1, Weight: 0.5, Insts: 20_000}, {Index: 4, Weight: 0.5, Insts: 20_000}},
	}
	tl.attempt("sampled", verifySampled(&sampled))
	twice := sampled
	twice.Points = []api.SampledPoint{sampled.Points[0], sampled.Points[0]}
	tl.attempt("sampled", verifySampled(&twice))
	unbounded := sampled
	unbounded.ErrorBound = 0
	tl.attempt("sampled", verifySampled(&unbounded))

	// Five policies disagreeing on one program's retired instructions.
	groups := newPolicyGroups()
	for i, p := range policies() {
		groups.add(api.JobSpec{Workload: "505.mcf_r", Seed: 3, Mode: p}, 1000+uint64(i/4))
	}
	if n := groups.check(tl, len(policies())); n != 1 {
		t.Fatalf("checked %d groups, want 1", n)
	}

	if attempted, failed := tl.counts(); attempted != 6 || failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5 (%s)", attempted, failed, tl.summary())
	}
}

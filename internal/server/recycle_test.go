package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// cappedSpec is a cold service job: one catalogue program under one policy,
// capped at 20k cycles.
func cappedSpec(program, mode string) api.JobSpec {
	return api.JobSpec{Workload: program, Mode: mode, MaxCycles: 20_000}
}

// TestFullJobBuildsOnReleasedMachine: a full job releases its machine once
// its result is built, so the next job on a one-worker server builds on
// that storage and allocates well under the ~1.6 MB of a fresh machine. The
// collector is off across both jobs, so it cannot reclaim the released
// storage in between.
func TestFullJobBuildsOnReleasedMachine(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(mode string) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, _, err := s.Run(context.Background(), cappedSpec("548.exchange2_r", mode)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first := run("specmpk")
	const bound = 512 << 10
	if second := run("serialized"); second >= bound {
		t.Fatalf("the second capped job allocated %d bytes (the first %d), want under %d", second, first, bound)
	} else {
		t.Logf("capped jobs allocated %d bytes, then %d on released storage", first, second)
	}
}

// TestRecycledFullResultsMatchFresh: capped full jobs of every catalogue
// program under every policy, run one after another on one worker so that
// each builds on the machine its predecessor released, return result bytes
// identical to a run on a fresh machine marshalled the same way. The
// collector runs only between programs, so four jobs in five reuse.
func TestRecycledFullResultsMatchFresh(t *testing.T) {
	var specs []api.JobSpec
	for _, p := range workload.Catalog() {
		for _, mode := range pipeline.RegisteredModes() {
			specs = append(specs, cappedSpec(p.Name, mode.String()))
		}
	}
	// The references first: nothing has been released since this
	// collection, so each builds on fresh storage.
	runtime.GC()
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = freshResult(t, spec)
	}

	s := newTestServer(t, Options{Workers: 1})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	modes := len(pipeline.RegisteredModes())
	for i, spec := range specs {
		if i%modes == 0 {
			runtime.GC()
		}
		_, info, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(info.Result, want[i]) {
			t.Fatalf("%s/%s: result on released storage differs from a fresh machine's:\n got %s\nwant %s",
				spec.Workload, spec.Mode, info.Result, want[i])
		}
	}
}

// freshResult runs spec on a machine of its own, never released, and
// marshals the result as a worker does.
func freshResult(t *testing.T, spec api.JobSpec) []byte {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
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
	if err := m.RunContext(context.Background(), ^uint64(0), norm.MaxCycles); err != nil && m.Stats.Stop != pipeline.StopCycleLimit {
		t.Fatal(err)
	}
	b, err := json.Marshal(api.Result{
		StopReason: string(m.Stats.Stop),
		Stats:      m.Stats,
		Metrics:    m.StatsRegistry().Snapshot().Flat(),
		Key:        key,
		Version:    api.Version,
		Spec:       norm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

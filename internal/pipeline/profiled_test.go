package pipeline_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
	"specmpk/internal/profile"
	"specmpk/internal/workload"
)

// batchCounter wraps a Profiler and counts the batched (n > 1) cycle
// attributions, which only the idle fast-forward makes.
type batchCounter struct {
	*profile.Profiler
	batches uint64
}

func (b *batchCounter) CycleAttributed(k pipeline.CPIBucket, pc uint64, n uint64) {
	if n > 1 {
		b.batches++
	}
	b.Profiler.CycleAttributed(k, pc, n)
}

// TestProfiledRunMatchesStepLoop: a profiled Run keeps the idle fast-forward
// and hands the profiler whole idle stretches at once, yet must build
// exactly the profile of a per-cycle Step loop — identical Report JSON and
// Stats — on the storm program (small window, to halt) and on 505.mcf_r
// (memory-bound, bounded), under every policy.
func TestProfiledRunMatchesStepLoop(t *testing.T) {
	wl, ok := workload.ByName("505.mcf_r")
	if !ok {
		t.Fatal("505.mcf_r missing from the catalogue")
	}
	mcf, err := wl.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	defaultCfg := func(mode pipeline.Mode) pipeline.Config {
		cfg := pipeline.DefaultConfig()
		cfg.Mode = mode
		return cfg
	}
	cases := []struct {
		name   string
		prog   *asm.Program
		cfg    func(pipeline.Mode) pipeline.Config
		cycles uint64
	}{
		{"storm", pipeline.StormProg(t), pipeline.SmallCfg, 2_000_000},
		{"505.mcf_r", mcf, defaultCfg, 300_000},
	}
	for _, c := range cases {
		for _, mode := range pipeline.RegisteredModes() {
			run := func(stepped bool) ([]byte, pipeline.Stats, uint64) {
				m, err := pipeline.New(c.cfg(mode), c.prog)
				if err != nil {
					t.Fatal(err)
				}
				sink := &batchCounter{Profiler: profile.New(c.prog)}
				m.Prof = sink
				if stepped {
					for m.Cycle() < c.cycles && !m.Halted() && m.Fault() == nil {
						m.Step()
					}
				} else if err := m.Run(c.cycles); err != nil && err != pipeline.ErrCycleLimit {
					t.Fatalf("%s/%v: %v", c.name, mode, err)
				}
				rep, err := json.Marshal(sink.Report())
				if err != nil {
					t.Fatal(err)
				}
				return rep, m.Stats, sink.batches
			}
			fastRep, fast, batches := run(false)
			slowRep, slow, _ := run(true)
			slow.Stop = fast.Stop // Step alone never records a stop reason
			if fast != slow {
				t.Errorf("%s/%v: Stats differ\nRun:  %+v\nStep: %+v", c.name, mode, fast, slow)
			}
			if !bytes.Equal(fastRep, slowRep) {
				t.Errorf("%s/%v: profile Report JSON differs between Run and the Step loop", c.name, mode)
			}
			if batches == 0 {
				t.Errorf("%s/%v: profiled Run never batched an idle stretch", c.name, mode)
			}
		}
	}
}

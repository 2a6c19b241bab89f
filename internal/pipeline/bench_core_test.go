package pipeline_test

import (
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// Core hot-path micro-benchmarks (`make bench-core`). BenchmarkMachineStep
// prices one pipeline cycle and reports allocations, so a reintroduced
// per-cycle allocation is visible directly in allocs/op (TestStepAllocsNothing
// fails on one). BenchmarkMachineRun prices a whole bounded simulation
// including construction, under every registered policy, on the programs a
// catalogue sweep spends most of its time in: 505.mcf_r is the longest run to
// halt, 520.omnetpp_r the most WRPKRU-dense and 548.exchange2_r a compute-bound
// contrast.

func benchProgram(b testing.TB, wl string) workload.Profile {
	b.Helper()
	p, ok := workload.ByName(wl)
	if !ok {
		b.Fatalf("unknown workload %q", wl)
	}
	return p
}

func BenchmarkMachineStep(b *testing.B) {
	for _, wl := range []string{"548.exchange2_r", "520.omnetpp_r", "505.mcf_r"} {
		for _, mode := range pipeline.RegisteredModes() {
			b.Run(wl+"/"+mode.String(), func(b *testing.B) {
				prog, err := benchProgram(b, wl).Build(workload.VariantFull)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Mode = mode
				m, err := pipeline.New(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if m.Halted() || m.Fault() != nil {
						b.StopTimer()
						m, _ = pipeline.New(cfg, prog)
						b.StartTimer()
					}
					m.Step()
				}
			})
		}
	}
}

func BenchmarkMachineRun(b *testing.B) {
	const cycles = 200000
	for _, wl := range []string{"548.exchange2_r", "520.omnetpp_r", "505.mcf_r"} {
		for _, mode := range pipeline.RegisteredModes() {
			b.Run(wl+"/"+mode.String(), func(b *testing.B) {
				prog, err := benchProgram(b, wl).Build(workload.VariantFull)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Mode = mode
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := pipeline.New(cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Run(cycles); err != nil && err != pipeline.ErrCycleLimit {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestStepAllocsNothing pins the zero-allocation steady state under every
// policy: after warming on 505.mcf_r, a cycle must not allocate. The
// scheduler's wake lists, the fetch queue and the RAS-checkpoint pool are
// all preallocated in New, so a per-cycle append or map write fails here.
func TestStepAllocsNothing(t *testing.T) {
	prog, err := benchProgram(t, "505.mcf_r").Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range pipeline.RegisteredModes() {
		cfg := pipeline.DefaultConfig()
		cfg.Mode = mode
		m, err := pipeline.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			m.Step()
		}
		if m.Halted() || m.Fault() != nil {
			t.Fatalf("%v: machine stopped during warm-up", mode)
		}
		if got := testing.AllocsPerRun(1000, m.Step); got != 0 {
			t.Errorf("%v: Machine.Step allocates %.2f times per cycle, want 0", mode, got)
		}
	}
}

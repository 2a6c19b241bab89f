package funcsim

import (
	"testing"

	"specmpk/internal/workload"
)

// BenchmarkRun prices the functional pass a benchmark set-up makes to order
// its job list: build, load and run every catalogue program's canonical
// build to halt, one thread at quantum 1. It reports milliseconds per pass
// over the catalogue and retired instructions per second.
func BenchmarkRun(b *testing.B) {
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, p := range workload.Catalog() {
			prog, err := p.Build(workload.VariantFull)
			if err != nil {
				b.Fatal(err)
			}
			m, err := New(prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(50_000_000, 1); err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			insts += m.Stats.Insts
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/pass")
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

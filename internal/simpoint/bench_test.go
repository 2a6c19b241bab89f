package simpoint

import (
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/workload"
)

// BenchmarkBuildPlan prices a sampled job's plan build at DefaultConfig —
// the profile pass, clustering and the capture pass — averaged over the
// catalogue's canonical programs, which are built before the timer starts.
func BenchmarkBuildPlan(b *testing.B) {
	var progs []*asm.Program
	for _, w := range workload.Catalog() {
		prog, err := w.Build(workload.VariantFull)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := BuildPlan(prog, DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(progs)), "ms/plan")
}

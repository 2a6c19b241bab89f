package simpoint

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// programDigest hashes every exported field of p in Go syntax, which prints
// maps in key order and calls no String method that could hide a field.
func programDigest(p *asm.Program) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", *p)))
}

// TestRunsLeaveProgramsUnchanged: no run writes the asm.Program it runs,
// which is what sharing one built program across the policy jobs of a
// (program, seed) needs. Each catalogue program runs capped under every
// policy, then its default plan is built and point 0 simulated, and its
// digest must not move.
func TestRunsLeaveProgramsUnchanged(t *testing.T) {
	for _, w := range workload.Catalog() {
		prog, err := w.Build(workload.VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		before := programDigest(prog)
		for _, mode := range pipeline.RegisteredModes() {
			mcfg := pipeline.DefaultConfig()
			mcfg.Mode = mode
			m, err := pipeline.New(mcfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(20_000); err != nil && !errors.Is(err, pipeline.ErrCycleLimit) {
				t.Fatalf("%s/%v: %v", w.Name, mode, err)
			}
			m.Release()
		}
		plan, err := BuildPlan(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.SimulatePoint(context.Background(), 0, pipeline.DefaultConfig(), prog); err != nil {
			t.Fatalf("%s: point 0: %v", w.Name, err)
		}
		if programDigest(prog) != before {
			t.Errorf("%s: a run changed the program", w.Name)
		}
	}
}

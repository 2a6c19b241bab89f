package simpoint

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"specmpk/internal/funcsim"
	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

func TestChooseDeterministicForSeed(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	intervals, err := Profile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := Choose(intervals, cfg)
	b := Choose(intervals, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds chose different clusters:\n%+v\n%+v", a, b)
	}
	// A different seed must still be internally deterministic.
	cfg2 := cfg
	cfg2.Seed = 99
	c := Choose(intervals, cfg2)
	d := Choose(intervals, cfg2)
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("seed 99 is not deterministic:\n%+v\n%+v", c, d)
	}
}

// TestCheckpointMemoryDeltaExact: a pristine load patched with a
// checkpoint's touched-page delta reproduces the exact architectural state
// (registers + every program region) of a machine that actually executed to
// the boundary.
func TestCheckpointMemoryDeltaExact(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	const idx = 7
	cps, err := CaptureCheckpoints(prog, cfg, []uint64{idx})
	if err != nil {
		t.Fatal(err)
	}
	cp := cps[0]
	if cp.Insts != idx*cfg.IntervalLen {
		t.Fatalf("checkpoint at %d insts, want %d", cp.Insts, idx*cfg.IntervalLen)
	}

	// Ground truth: an independent functional run to the same boundary.
	live, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Run(idx*cfg.IntervalLen, 1); err != nil && err != funcsim.ErrLimit {
		t.Fatal(err)
	}
	want, err := live.Digest()
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruction: pristine load + page delta + checkpointed registers.
	as, err := prog.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.patchPages(as); err != nil {
		t.Fatal(err)
	}
	got, err := funcsim.DigestState(cp.Regs, as, prog.Regions)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored state digest %#x, live digest %#x", got, want)
	}
	if cp.PC != live.Threads[0].PC {
		t.Fatalf("restored PC %#x, live PC %#x", cp.PC, live.Threads[0].PC)
	}
}

func TestCaptureCheckpointsAlignedAndDeduped(t *testing.T) {
	w, _ := workload.ByName("548.exchange2_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	// Out of order with a duplicate: one pass, aligned output, shared capture.
	idxs := []uint64{9, 2, 9, 5}
	cps, err := CaptureCheckpoints(prog, cfg, idxs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != len(idxs) {
		t.Fatalf("%d checkpoints for %d indices", len(cps), len(idxs))
	}
	for i, cp := range cps {
		if cp.Index != idxs[i] {
			t.Fatalf("checkpoint %d has index %d, want %d", i, cp.Index, idxs[i])
		}
	}
	if cps[0] != cps[2] {
		t.Fatal("duplicate indices did not share one capture")
	}
	// Warm-up history must deepen with execution (later checkpoint saw more).
	if len(cps[1].Warm) == 0 {
		t.Fatal("checkpoint 2 has no warm-up log")
	}
}

func TestCaptureCheckpointBeyondEndFails(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	_, err = CaptureCheckpoints(prog, cfg, []uint64{1 << 40})
	if err == nil || !strings.Contains(err.Error(), "beyond program end") {
		t.Fatalf("err = %v, want beyond-program-end", err)
	}
}

// TestSimulatePointDeterministic: restoring the same checkpoint twice into
// fresh machines yields identical detailed statistics — the property that
// makes sampled results byte-reproducible.
func TestSimulatePointDeterministic(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := pipeline.DefaultConfig()
	a, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same point, different stats:\n%+v\n%+v", a, b)
	}
	if a.Insts < testConfig().IntervalLen {
		t.Fatalf("point retired %d insts, want >= %d", a.Insts, testConfig().IntervalLen)
	}
}

// TestSimulatePointCancelled: an interval run under a cancelled context
// stops at its first context poll, with the context's error and a
// cancelled stop reason.
func TestSimulatePointCancelled(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := plan.SimulatePoint(ctx, 0, pipeline.DefaultConfig(), prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulatePoint = %v, want context.Canceled", err)
	}
	if st.Stop != pipeline.StopCancelled {
		t.Fatalf("stop reason %q, want %q", st.Stop, pipeline.StopCancelled)
	}
	// The run polls its context every 1,024 cycles.
	if st.Cycles > 1024 {
		t.Fatalf("cancelled interval ran %d cycles, want at most one poll interval", st.Cycles)
	}
}

func TestBuildPlanPointOrderCanonical(t *testing.T) {
	w, _ := workload.ByName("548.exchange2_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Points, p2.Points) {
		t.Fatal("two builds of the same plan chose different point orders")
	}
	for i := 1; i < len(p1.Points); i++ {
		prev, cur := p1.Points[i-1], p1.Points[i]
		if cur.Weight > prev.Weight {
			t.Fatalf("points not weight-sorted at %d", i)
		}
		if cur.Weight == prev.Weight && cur.Interval.Index < prev.Interval.Index {
			t.Fatalf("weight tie at %d not broken by interval index", i)
		}
	}
}

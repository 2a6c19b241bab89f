package pipeline_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
)

// spinProg is a program that never halts: the pathological case the
// Config.MaxCycles budget exists for.
const spinProg = `
main:
    addi t0, t0, 1
    jmp main
`

const haltProg = `
main:
    movi t0, 3
loop:
    addi t0, t0, -1
    bne t0, zero, loop
    halt
`

func buildText(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigMaxCyclesBoundsPathologicalProgram(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.MaxCycles = 10_000
	m, err := pipeline.New(cfg, buildText(t, spinProg))
	if err != nil {
		t.Fatal(err)
	}
	// The caller's budget is effectively unbounded; Config.MaxCycles must
	// stop the run anyway, with the distinct stop reason.
	err = m.Run(1 << 62)
	if !errors.Is(err, pipeline.ErrCycleLimit) {
		t.Fatalf("Run = %v, want ErrCycleLimit", err)
	}
	if m.Stats.Stop != pipeline.StopCycleLimit {
		t.Fatalf("stop reason %q, want %q", m.Stats.Stop, pipeline.StopCycleLimit)
	}
	if m.Stats.Cycles != 10_000 {
		t.Fatalf("ran %d cycles, want exactly the 10000-cycle budget", m.Stats.Cycles)
	}
}

func TestRunStopReasonHalt(t *testing.T) {
	m, err := pipeline.New(pipeline.DefaultConfig(), buildText(t, haltProg))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Stop != pipeline.StopHalt {
		t.Fatalf("stop reason %q, want %q", m.Stats.Stop, pipeline.StopHalt)
	}
}

func TestRunInstsStopReasonInstLimit(t *testing.T) {
	m, err := pipeline.New(pipeline.DefaultConfig(), buildText(t, spinProg))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInsts(100, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Stop != pipeline.StopInstLimit {
		t.Fatalf("stop reason %q, want %q", m.Stats.Stop, pipeline.StopInstLimit)
	}
	if m.Stats.Insts < 100 {
		t.Fatalf("retired %d instructions, want >= 100", m.Stats.Insts)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	m, err := pipeline.New(pipeline.DefaultConfig(), buildText(t, spinProg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.RunContext(ctx, ^uint64(0), 1<<62)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if m.Stats.Stop != pipeline.StopCancelled {
		t.Fatalf("stop reason %q, want %q", m.Stats.Stop, pipeline.StopCancelled)
	}
	// The poll interval bounds how far a cancelled run can advance.
	if m.Stats.Cycles > 2048 {
		t.Fatalf("cancelled run advanced %d cycles", m.Stats.Cycles)
	}
}

func TestRunContextConcurrentCancel(t *testing.T) {
	m, err := pipeline.New(pipeline.DefaultConfig(), buildText(t, spinProg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() { done <- m.RunContext(ctx, ^uint64(0), 1<<62) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
		if m.Stats.Stop != pipeline.StopCancelled {
			t.Fatalf("stop reason %q, want %q", m.Stats.Stop, pipeline.StopCancelled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the run")
	}
}

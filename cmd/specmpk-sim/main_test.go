package main

import (
	"errors"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
)

func TestUsageError(t *testing.T) {
	for _, c := range []struct {
		name          string
		statsOut      string
		statsInterval uint64
		timeline      bool
		traceOut      string
		traceBuf      int
		bad           bool
	}{
		{name: "defaults", traceBuf: 1 << 20},
		{name: "intervals", statsOut: "s.jsonl", statsInterval: 1000, traceBuf: 1 << 20},
		{name: "timeline", timeline: true, traceBuf: 1 << 20},
		{name: "unused trace-buf", traceBuf: 0},
		{name: "trace-buf", traceOut: "t.jsonl", traceBuf: 0, bad: true},
		{name: "interval without stats-out", statsInterval: 1000, traceBuf: 1 << 20, bad: true},
		{name: "timeline with intervals", statsOut: "s.jsonl", statsInterval: 1000, timeline: true, traceBuf: 1 << 20, bad: true},
	} {
		err := usageError(c.statsOut, c.statsInterval, c.timeline, c.traceOut, c.traceBuf)
		if (err != nil) != c.bad {
			t.Errorf("%s: usageError = %v, want error %v", c.name, err, c.bad)
		}
	}
}

// newMachine builds a machine for src under the default configuration.
func newMachine(t *testing.T, src string) *pipeline.Machine {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunChunks: the chunk loop ends a run the way Run does, whatever the
// chunk size. A spin loop exhausts its budget with ErrCycleLimit at exactly
// the budget, its chunks on exact boundaries; a halting run ends nil on the
// same cycle as a plain Run, with a short last chunk.
func TestRunChunks(t *testing.T) {
	const spin = "main:\n    addi t0, t0, 1\n    jmp main\n"
	const halting = "main:\n    movi t0, 500\nloop:\n    addi t0, t0, -1\n    bne t0, zero, loop\n    halt\n"
	ref := newMachine(t, halting)
	if err := ref.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if ref.Cycle()%100 == 0 {
		t.Fatalf("the halting program ends on a chunk boundary (cycle %d); the short last chunk would go untested", ref.Cycle())
	}
	for _, c := range []struct {
		name          string
		src           string
		chunk, budget uint64
		want          error
		cycles        uint64
	}{
		{"budget on a boundary", spin, 1000, 5000, pipeline.ErrCycleLimit, 5000},
		{"budget inside a chunk", spin, 1000, 4500, pipeline.ErrCycleLimit, 4500},
		{"zero budget", spin, 1000, 0, pipeline.ErrCycleLimit, 0},
		{"halts", halting, 100, 1_000_000, nil, ref.Cycle()},
	} {
		m := newMachine(t, c.src)
		var chunks []uint64
		err := runChunks(m, c.chunk, c.budget, func(cycles uint64) error {
			chunks = append(chunks, cycles)
			return nil
		})
		if err != c.want {
			t.Errorf("%s: runChunks = %v, want %v", c.name, err, c.want)
		}
		if m.Cycle() != c.cycles {
			t.Errorf("%s: stopped at cycle %d, want %d", c.name, m.Cycle(), c.cycles)
		}
		var sum uint64
		for i, n := range chunks {
			sum += n
			if n == 0 || n > c.chunk || n < c.chunk && i < len(chunks)-1 {
				t.Errorf("%s: chunk %d covers %d cycles of %d: %v", c.name, i, n, c.chunk, chunks)
			}
		}
		if sum != m.Cycle() {
			t.Errorf("%s: chunks sum to %d cycles, machine at %d", c.name, sum, m.Cycle())
		}
	}

	stop := errors.New("stop")
	m := newMachine(t, spin)
	calls := 0
	if err := runChunks(m, 1000, 5000, func(uint64) error { calls++; return stop }); err != stop || calls != 1 || m.Cycle() != 1000 {
		t.Errorf("an error from each: runChunks = %v after %d calls at cycle %d, want it after 1 call at cycle 1000", err, calls, m.Cycle())
	}
}

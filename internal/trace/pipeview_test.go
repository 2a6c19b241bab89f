package trace_test

import (
	"strings"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/pipeline"
	"specmpk/internal/trace"
)

func TestPipeviewFromRealTrace(t *testing.T) {
	b := asm.NewBuilder(0x10000)
	f := b.Func("main")
	f.Movi(9, 5).Movi(10, 0)
	f.Label("loop")
	f.Add(10, 10, 9)
	f.Addi(9, 9, -1)
	f.Bne(9, isa.RegZero, "loop")
	f.Halt()
	prog, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	m.OnTrace = func(r trace.Record) { recs = append(recs, r) }
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(m.Stats.Insts) {
		t.Fatalf("%d records for %d retired", len(recs), m.Stats.Insts)
	}
	// Timestamps are monotone per instruction and retires are in order.
	for i, r := range recs {
		if r.Rename < r.Fetch || r.Issue < r.Rename || r.Retire < r.Complete {
			t.Fatalf("record %d timestamps out of order: %+v", i, r)
		}
		if i > 0 && r.Retire < recs[i-1].Retire {
			t.Fatalf("retires out of order at %d", i)
		}
	}
	out := trace.Pipeview(recs, 80)
	if !strings.Contains(out, "F") || !strings.Contains(out, "W") {
		t.Fatalf("markers missing:\n%s", out)
	}
	if !strings.Contains(out, "movi r9, 5") {
		t.Fatalf("instruction text missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(recs)+1 {
		t.Fatalf("%d lines for %d records", len(lines), len(recs))
	}
}

func TestPipeviewEmptyAndScaling(t *testing.T) {
	if !strings.Contains(trace.Pipeview(nil, 0), "no trace") {
		t.Fatal("empty render")
	}
	// A record far beyond the width must be scaled, not overflow.
	recs := []trace.Record{{
		Seq: 1, Fetch: 0, Rename: 10, Issue: 500, Complete: 900, Retire: 1000,
	}}
	out := trace.Pipeview(recs, 50)
	for _, l := range strings.Split(out, "\n") {
		if len(l) > 50+40 { // columns + prefix/suffix slack
			t.Fatalf("line too long: %d", len(l))
		}
	}
}

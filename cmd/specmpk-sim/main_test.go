package main

import "testing"

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

package otrace

import (
	"encoding/json"
	"io"
	"time"

	"specmpk/internal/trace"
)

// WriteJSONL writes one JSON object per span per line — the same export
// shape as the event trace.
func WriteJSONL(w io.Writer, spans []SpanData) error {
	return trace.WriteJSONLRows(w, spans)
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// spans, "i" instants for span events, "M" metadata naming the rows), the
// JSON that chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds, relative to first span
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the format; Perfetto accepts it and it
// leaves room for metadata next to the event array.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes spans as Chrome trace-event JSON. Each trace gets its
// own row (tid), named by its trace ID, so loading a flight-recorder dump in
// Perfetto shows one swimlane per request with the lifecycle stages nested
// by time. Timestamps are microseconds relative to the earliest span start,
// which keeps the file stable across identical re-exports of relative data.
func WriteChrome(w io.Writer, spans []SpanData) error {
	var t0 time.Time
	for _, sd := range spans {
		if t0.IsZero() || sd.Start.Before(t0) {
			t0 = sd.Start
		}
	}
	us := func(t time.Time) float64 {
		return float64(t.Sub(t0).Nanoseconds()) / 1e3
	}

	tids := make(map[string]int)
	events := make([]chromeEvent, 0, 2*len(spans))
	for _, sd := range spans {
		tid, ok := tids[sd.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[sd.TraceID] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": "trace " + sd.TraceID},
			})
		}
		args := make(map[string]any, len(sd.Attrs)+3)
		for k, v := range sd.Attrs {
			args[k] = v
		}
		args["trace_id"] = sd.TraceID
		args["span_id"] = sd.SpanID
		if sd.ParentID != "" {
			args["parent_id"] = sd.ParentID
		}
		if sd.Status != "" {
			args["status"] = sd.Status
		}
		events = append(events, chromeEvent{
			Name: sd.Name, Cat: "span", Ph: "X",
			TS: us(sd.Start), Dur: us(sd.End) - us(sd.Start),
			PID: 1, TID: tid, Args: args,
		})
		for _, ev := range sd.Events {
			events = append(events, chromeEvent{
				Name: ev.Name, Cat: "event", Ph: "i",
				TS: us(ev.Time), PID: 1, TID: tid, S: "t",
				Args: ev.Attrs,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSnapshotKindsAndOrder(t *testing.T) {
	r := NewRegistry()
	c := uint64(0)
	g := 2.5
	r.Counter("b.count", "a counter", func() uint64 { return c })
	r.Gauge("a.gauge", "a gauge", func() float64 { return g })
	h := NewHistogram([]float64{1, 10})
	r.AttachHistogram("c.hist", "a histogram", h)
	r.formula("d.double", "count*2", func(get func(string) float64) float64 {
		return 2 * get("b.count")
	})

	c = 7
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	s := r.Snapshot()

	if got := []string{s.Values[0].Name, s.Values[1].Name, s.Values[2].Name, s.Values[3].Name}; got[0] != "a.gauge" || got[1] != "b.count" || got[2] != "c.hist" || got[3] != "d.double" {
		t.Fatalf("snapshot not sorted by name: %v", got)
	}
	if v, _ := s.Get("b.count"); v.Uint != 7 {
		t.Fatalf("counter = %d, want 7", v.Uint)
	}
	if v, _ := s.Get("a.gauge"); v.Float != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", v.Float)
	}
	if v, _ := s.Get("d.double"); v.Float != 14 {
		t.Fatalf("formula = %v, want 14", v.Float)
	}
	v, _ := s.Get("c.hist")
	if v.Hist.Count != 3 || v.Hist.Counts[0] != 1 || v.Hist.Counts[1] != 1 || v.Hist.Counts[2] != 1 {
		t.Fatalf("histogram = %+v", v.Hist)
	}
	if got := v.Hist.Mean(); math.Abs(got-105.5/3) > 1e-9 {
		t.Fatalf("histogram mean = %v", got)
	}
}

func TestRatio(t *testing.T) {
	r := NewRegistry()
	hits, misses := uint64(0), uint64(0)
	r.Counter("hits", "", func() uint64 { return hits })
	r.Counter("misses", "", func() uint64 { return misses })
	r.Ratio("miss_rate", "", 1, "misses", "hits", "misses")
	r.Ratio("misses_per_kaccess", "", 1000, "misses", "hits", "misses")
	if v, _ := r.Snapshot().Get("miss_rate"); v.Float != 0 {
		t.Fatalf("ratio over a zero denominator = %v, want 0", v.Float)
	}
	hits, misses = 3, 1
	s := r.Snapshot()
	if v, _ := s.Get("miss_rate"); v.Float != 0.25 {
		t.Fatalf("miss_rate = %v, want 0.25", v.Float)
	}
	if v, _ := s.Get("misses_per_kaccess"); v.Float != 250 {
		t.Fatalf("misses_per_kaccess = %v, want 250", v.Float)
	}
}

func TestDeltaSince(t *testing.T) {
	r := NewRegistry()
	c := uint64(10)
	r.Counter("n", "", func() uint64 { return c })
	r.Gauge("occ", "", func() float64 { return float64(c) })
	h := NewHistogram([]float64{5})
	r.AttachHistogram("h", "", h)
	r.Ratio("rate", "n per h-count", 1, "n", "h")
	h.Observe(1)

	prev := r.Snapshot()
	c = 25
	h.Observe(2)
	h.Observe(100)

	d := r.DeltaSince(prev)
	if v, _ := d.Get("n"); v.Uint != 15 {
		t.Fatalf("delta counter = %d, want 15", v.Uint)
	}
	// Gauges stay instantaneous.
	if v, _ := d.Get("occ"); v.Float != 25 {
		t.Fatalf("delta gauge = %v, want 25", v.Float)
	}
	v, _ := d.Get("h")
	if v.Hist.Count != 2 || v.Hist.Counts[0] != 1 || v.Hist.Counts[1] != 1 {
		t.Fatalf("delta histogram = %+v", v.Hist)
	}
	// Formulas are re-evaluated over the interval values: 15/2.
	if v, _ := d.Get("rate"); v.Float != 7.5 {
		t.Fatalf("delta formula = %v, want 7.5", v.Float)
	}
	// A full snapshot after the delta still sees cumulative values.
	if got := r.Snapshot().Number("n"); got != 25 {
		t.Fatalf("cumulative counter after delta = %v, want 25", got)
	}
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", func() uint64 { return 0 })
	for _, fn := range []func(){
		func() { r.Counter("x", "", func() uint64 { return 0 }) },
		func() { r.Gauge("", "", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTextRenderer(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.cycles", "simulated cycles", func() uint64 { return 42 })
	r.formula("pipeline.ipc", "ipc", func(get func(string) float64) float64 { return 1.5 })
	txt := r.Snapshot().Text()
	for _, want := range []string{"pipeline.cycles", "42", "# simulated cycles", "pipeline.ipc", "1.5"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text dump missing %q:\n%s", want, txt)
		}
	}
}

func TestJSONRenderer(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.n", "", func() uint64 { return 3 })
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	r.AttachHistogram("a.h", "", h)
	r.formula("a.nan", "", func(get func(string) float64) float64 { return math.NaN() })

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if string(out.Metrics["a.n"]) != "3" {
		t.Fatalf("a.n = %s", out.Metrics["a.n"])
	}
	// NaN must be sanitized or encoding fails entirely.
	if string(out.Metrics["a.nan"]) != "0" {
		t.Fatalf("a.nan = %s", out.Metrics["a.nan"])
	}
	var hv HistValue
	if err := json.Unmarshal(out.Metrics["a.h"], &hv); err != nil || hv.Count != 1 {
		t.Fatalf("a.h = %s (err %v)", out.Metrics["a.h"], err)
	}
}

func TestPrometheusRenderer(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.l2.misses", "demand misses", func() uint64 { return 9 })
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	r.AttachHistogram("pipeline.load_latency", "load latency", h)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cache_l2_misses counter",
		"cache_l2_misses 9",
		"# TYPE pipeline_load_latency histogram",
		`pipeline_load_latency_bucket{le="1"} 1`,
		`pipeline_load_latency_bucket{le="2"} 2`,
		`pipeline_load_latency_bucket{le="+Inf"} 3`,
		"pipeline_load_latency_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

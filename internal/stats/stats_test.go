package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// registry returns a registry whose one source is src.
func registry(src Source) *Registry {
	r := NewRegistry()
	r.Add(src)
	return r
}

func TestSnapshotKindsAndOrder(t *testing.T) {
	c := uint64(0)
	h := NewHistogram([]float64{1, 10})
	r := registry(func(w *Writer) {
		w.Counter("b.count", "a counter", c)
		w.Gauge("a.gauge", "a gauge", 2.5)
		w.Histogram("c.hist", "a histogram", h.Value())
		w.Ratio("d.double", "count*2", 2, "b.count", "one")
		w.Counter("one", "", 1)
	})

	c = 7
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	s := r.Snapshot()

	var got []string
	for _, v := range s.Values {
		got = append(got, v.Name)
	}
	if strings.Join(got, " ") != "a.gauge b.count c.hist d.double one" {
		t.Fatalf("snapshot not sorted by name: %v", got)
	}
	if v, _ := s.Get("b.count"); v.Uint != 7 {
		t.Fatalf("counter = %d, want 7", v.Uint)
	}
	if v, _ := s.Get("a.gauge"); v.Float != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", v.Float)
	}
	// The ratio reads a counter written after it.
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
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get found a metric no source wrote")
	}
}

func TestRatio(t *testing.T) {
	hits, misses := uint64(0), uint64(0)
	r := registry(func(w *Writer) {
		w.Counter("hits", "", hits)
		w.Counter("misses", "", misses)
		w.Ratio("miss_rate", "", 1, "misses", "hits", "misses")
		w.Ratio("misses_per_kaccess", "", 1000, "misses", "hits", "misses")
	})
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

// TestRatiosEvaluateInWriteOrder pins the formula rule: every ratio reads
// the counters of every source, and another ratio's value only when that
// ratio was written first.
func TestRatiosEvaluateInWriteOrder(t *testing.T) {
	r := NewRegistry()
	r.Add(func(w *Writer) {
		w.Ratio("z.half", "", 1, "a.n", "b.two")
		w.Ratio("y.quarter", "", 1, "z.half", "b.two")
		w.Ratio("x.early", "", 1, "w.late", "b.two")
		w.Ratio("w.late", "", 1, "a.n", "b.two")
	})
	r.Add(func(w *Writer) {
		w.Counter("a.n", "", 1)
		w.Counter("b.two", "", 2)
	})
	s := r.Snapshot()
	for name, want := range map[string]float64{
		"z.half": 0.5, "y.quarter": 0.25, "w.late": 0.5, "x.early": 0,
	} {
		if got := s.Number(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestDeltaSince(t *testing.T) {
	c := uint64(10)
	h := NewHistogram([]float64{5})
	r := registry(func(w *Writer) {
		w.Counter("n", "", c)
		w.Gauge("occ", "", float64(c))
		w.Histogram("h", "", h.Value())
		w.Ratio("rate", "n per h-count", 1, "n", "h")
	})
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
	for name, src := range map[string]Source{
		"duplicate": func(w *Writer) {
			w.Counter("x", "", 0)
			w.Gauge("x", "", 0)
		},
		"empty":      func(w *Writer) { w.Gauge("", "", 0) },
		"whitespace": func(w *Writer) { w.Counter("cache.a b.hits", "", 0) },
		"tab":        func(w *Writer) { w.Counter("cache.a\tb.hits", "", 0) },
	} {
		r := registry(src)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Snapshot did not panic", name)
				}
			}()
			r.Snapshot()
		}()
	}
	// A duplicate across two sources is caught the same way.
	r := registry(func(w *Writer) { w.Counter("x", "", 0) })
	r.Add(func(w *Writer) { w.Counter("x", "", 0) })
	defer func() {
		if recover() == nil {
			t.Error("duplicate across sources: Snapshot did not panic")
		}
	}()
	r.Snapshot()
}

func TestTextRenderer(t *testing.T) {
	r := registry(func(w *Writer) {
		w.Counter("pipeline.cycles", "simulated cycles", 42)
		w.Counter("pipeline.insts", "", 63)
		w.Ratio("pipeline.ipc", "ipc", 1, "pipeline.insts", "pipeline.cycles")
	})
	txt := r.Snapshot().Text()
	for _, want := range []string{"pipeline.cycles", "42", "# simulated cycles", "pipeline.ipc", "1.5"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text dump missing %q:\n%s", want, txt)
		}
	}
}

func TestJSONRenderer(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	r := registry(func(w *Writer) {
		w.Counter("a.n", "", 3)
		w.Histogram("a.h", "", h.Value())
		w.Gauge("a.nan", "", math.NaN())
	})

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
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	r := registry(func(w *Writer) {
		w.Counter("cache.l2.misses", "demand misses", 9)
		w.Histogram("pipeline.load_latency", "load latency", h.Value())
	})

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

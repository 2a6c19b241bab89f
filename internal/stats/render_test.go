package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// sampleHist builds a histogram with a known shape: 10 samples spread so
// the quantile estimates are hand-checkable.
func sampleHist() *Histogram {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 1.5, 3, 3, 6, 6, 100} {
		h.Observe(v)
	}
	return h
}

func TestHistogramQuantiles(t *testing.T) {
	hv := sampleHist().Value()
	// Buckets: le1:2, le2:3, le4:2, le8:2, inf:1 (count 10).
	cases := []struct {
		q    float64
		want float64
	}{
		// rank 5 lands at the end of the le2 bucket (counts 2+3).
		{0.5, 2.0},
		// rank 2 is the whole le1 bucket: interpolates to its upper bound.
		{0.2, 1.0},
		// rank 9 is the end of the le8 bucket.
		{0.9, 8.0},
		// rank 10 falls in the overflow bucket: clamps to the last bound.
		{1.0, 8.0},
	}
	for _, c := range cases {
		if got := hv.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Interpolation inside a bucket: rank 4 is 2/3 through the le2 bucket.
	want := 1 + (2-1)*(4.0-2.0)/3.0
	if got := hv.Quantile(0.4); math.Abs(got-want) > 1e-9 {
		t.Errorf("Quantile(0.4) = %g, want %g", got, want)
	}
	empty := NewHistogram([]float64{1}).Value()
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

// TestHistogramTextRenderer pins the text dump's histogram summary: count,
// mean, the p50/p90/p99 quantile lines, and the non-empty bucket rows.
func TestHistogramTextRenderer(t *testing.T) {
	h := sampleHist()
	r := registry(func(w *Writer) { w.Histogram("lat.ms", "latency", h.Value()) })
	txt := r.Snapshot().Text()
	for _, line := range [][2]string{
		{"lat.ms", "10"},
		{"lat.ms.mean", "12.35"},
		{"lat.ms.p50", "2"},
		{"lat.ms.p90", "8"},
		{"lat.ms.p99", "8"},
		{"lat.ms.le_1", "2"},
		{"lat.ms.le_2", "3"},
		{"lat.ms.le_inf", "1"},
	} {
		found := false
		for _, l := range strings.Split(txt, "\n") {
			f := strings.Fields(l)
			if len(f) >= 2 && f[0] == line[0] && f[1] == line[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("text dump missing line %q = %q:\n%s", line[0], line[1], txt)
		}
	}
}

// TestHistogramJSONRenderer checks a histogram round-trips through the flat
// JSON shape with buckets, sum, and count intact.
func TestHistogramJSONRenderer(t *testing.T) {
	h := sampleHist()
	r := registry(func(w *Writer) { w.Histogram("lat.ms", "latency", h.Value()) })
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]*HistValue `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	hv := out.Metrics["lat.ms"]
	if hv == nil || hv.Count != 10 {
		t.Fatalf("lat.ms = %+v", hv)
	}
	if got := []uint64{2, 3, 2, 2, 1}; len(hv.Counts) != len(got) {
		t.Fatalf("bucket counts %v", hv.Counts)
	}
	if hv.Sum != 123.5 {
		t.Fatalf("sum = %g, want 123.5", hv.Sum)
	}
	// The decoded value answers quantiles too — the path the service
	// dashboards consume.
	if got := hv.Quantile(0.5); got != 2 {
		t.Fatalf("decoded Quantile(0.5) = %g", got)
	}
}

// TestHistogramPrometheusRenderer pins the full exposition of one histogram:
// HELP/TYPE, cumulative le buckets (including +Inf), _sum and _count.
func TestHistogramPrometheusRenderer(t *testing.T) {
	h := sampleHist()
	r := registry(func(w *Writer) { w.Histogram("server.latency.e2e_ms", "end-to-end latency", h.Value()) })
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP server_latency_e2e_ms end-to-end latency",
		"# TYPE server_latency_e2e_ms histogram",
		`server_latency_e2e_ms_bucket{le="1"} 2`,
		`server_latency_e2e_ms_bucket{le="2"} 5`,
		`server_latency_e2e_ms_bucket{le="4"} 7`,
		`server_latency_e2e_ms_bucket{le="8"} 9`,
		`server_latency_e2e_ms_bucket{le="+Inf"} 10`,
		"server_latency_e2e_ms_sum 123.5",
		"server_latency_e2e_ms_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestSyncHistogramConcurrentObserve hammers a SyncHistogram from several
// goroutines while snapshotting; run under -race this is the safety proof
// the server's latency histograms rely on.
func TestSyncHistogramConcurrentObserve(t *testing.T) {
	h := NewSyncHistogram([]float64{1, 10, 100})
	r := registry(func(w *Writer) { w.Histogram("lat.ms", "latency", h.Value()) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	v, ok := r.Snapshot().Get("lat.ms")
	if !ok || v.Hist.Count != 4000 {
		t.Fatalf("count = %+v, want 4000", v)
	}
	if h.Count() != 4000 || h.Sum() == 0 {
		t.Fatalf("accessors: count=%d sum=%g", h.Count(), h.Sum())
	}
}

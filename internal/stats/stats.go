// Package stats is a gem5-style hierarchical statistics registry. Metrics
// carry dotted names ("pipeline.rename.serialize_stalls", "cache.l2.misses")
// and one of four kinds:
//
//   - Counter: a monotonically increasing uint64 read through a closure, so
//     existing hot-path `x++` counters register without changing their
//     representation.
//   - Gauge: an instantaneous float64 (occupancy, free-list depth).
//   - Histogram: bucketed observations (load latency).
//   - Formula: a float64 derived from other metrics at snapshot time (IPC,
//     miss rates), registered with Ratio. Formulas are re-evaluated over
//     *deltas* too, so an interval snapshot reports interval IPC, not
//     cumulative IPC.
//
// A Registry is cheap to snapshot; Snapshot/DeltaSince give cumulative and
// interval views, and three renderers serialize a snapshot: an aligned text
// dump (Text), a flat JSON object (WriteJSON), and Prometheus text
// exposition (WritePrometheus).
//
// The registry is not synchronized: a simulated machine and its registry
// belong to one goroutine, matching how the experiment runner parallelizes
// across machines rather than within one.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered metric.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindFormula
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindFormula:
		return "formula"
	}
	return fmt.Sprintf("kind%d", int(k))
}

type entry struct {
	name    string
	desc    string
	kind    Kind
	counter func() uint64
	gauge   func() float64
	hist    histSource
	formula func(get func(string) float64) float64
}

// histSource is what a registered histogram must provide at snapshot time.
// It is satisfied by Histogram (single-goroutine, zero-overhead Observe) and
// SyncHistogram (mutex-guarded, for histograms observed concurrently with
// snapshots — the server's latency metrics).
type histSource interface {
	value() *HistValue
}

// Registry holds the registered metrics of one machine.
type Registry struct {
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

func (r *Registry) add(e *entry) {
	if e.name == "" || strings.ContainsAny(e.name, " \t\n") {
		panic(fmt.Sprintf("stats: invalid metric name %q", e.name))
	}
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("stats: duplicate metric %q", e.name))
	}
	r.entries = append(r.entries, e)
	r.byName[e.name] = e
}

// Counter registers a monotonically increasing value read through fn.
func (r *Registry) Counter(name, desc string, fn func() uint64) {
	r.add(&entry{name: name, desc: desc, kind: KindCounter, counter: fn})
}

// Gauge registers an instantaneous value read through fn.
func (r *Registry) Gauge(name, desc string, fn func() float64) {
	r.add(&entry{name: name, desc: desc, kind: KindGauge, gauge: fn})
}

// AttachHistogram registers an existing histogram (so the observing hot path
// can hold the histogram directly, without a registry lookup).
func (r *Registry) AttachHistogram(name, desc string, h *Histogram) {
	r.add(&entry{name: name, desc: desc, kind: KindHistogram, hist: h})
}

// histFunc adapts a snapshot-time builder to histSource, for histograms whose
// observing hot path keeps plain integer counters and only materializes a
// HistValue when a snapshot asks for one (the pipeline's batched load-latency
// counters).
type histFunc func() HistValue

func (f histFunc) value() *HistValue {
	v := f()
	return &v
}

// HistogramFunc registers a histogram materialized on demand by fn. fn must
// return a HistValue with len(Counts) == len(Bounds)+1 (the last bucket is
// the overflow bucket), exactly as a Histogram snapshot would.
func (r *Registry) HistogramFunc(name, desc string, fn func() HistValue) {
	r.add(&entry{name: name, desc: desc, kind: KindHistogram, hist: histFunc(fn)})
}

// AttachSyncHistogram registers a concurrency-safe histogram. Use it when
// the observing goroutines are not the snapshotting goroutine (e.g. the
// server's worker pool observed from a concurrent /v1/metrics scrape).
func (r *Registry) AttachSyncHistogram(name, desc string, h *SyncHistogram) {
	r.add(&entry{name: name, desc: desc, kind: KindHistogram, hist: h})
}

// formula registers a derived value. fn receives a lookup over the snapshot
// being built (counters and histogram totals as float64, earlier formulas
// included); unknown names read as 0.
func (r *Registry) formula(name, desc string, fn func(get func(string) float64) float64) {
	r.add(&entry{name: name, desc: desc, kind: KindFormula, formula: fn})
}

// Ratio registers the derived value scale × num / (den[0] + den[1] + ...),
// read over the snapshot being built (earlier formulas included, unknown
// names as 0). It reads 0 while the denominator is 0.
func (r *Registry) Ratio(name, desc string, scale float64, num string, den ...string) {
	r.formula(name, desc, func(get func(string) float64) float64 {
		var d float64
		for _, n := range den {
			d += get(n)
		}
		if d == 0 {
			return 0
		}
		return scale * (get(num) / d)
	})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.entries) }

// ---------------------------------------------------------------------------
// Histogram

// Histogram buckets float64 observations by configurable upper bounds, with
// an implicit +Inf bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds (inclusive)
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.n++
	h.sum += v
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// SyncHistogram is a Histogram whose Observe and snapshot paths are safe to
// use from different goroutines. The plain Histogram stays lock-free for the
// simulator's single-goroutine hot paths; SyncHistogram serves shared-state
// consumers like the server's job-lifecycle latency metrics, where worker
// goroutines observe while HTTP scrapes snapshot.
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// NewSyncHistogram builds a concurrency-safe histogram with the given
// ascending upper bounds.
func NewSyncHistogram(bounds []float64) *SyncHistogram {
	return &SyncHistogram{h: *NewHistogram(bounds)}
}

// Observe records one sample.
func (s *SyncHistogram) Observe(v float64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *SyncHistogram) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Count()
}

// Sum returns the running sum of observations.
func (s *SyncHistogram) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Sum()
}

func (s *SyncHistogram) value() *HistValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.value()
}

// HistValue is a histogram's state captured in a snapshot.
type HistValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // per bucket; last is > bounds[len-1]
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Mean returns sum/count (0 when empty).
func (hv *HistValue) Mean() float64 {
	if hv.Count == 0 {
		return 0
	}
	return hv.Sum / float64(hv.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the target rank — the same estimate Prometheus's
// histogram_quantile computes from the exported buckets. Samples in the
// overflow (+Inf) bucket clamp to the largest finite bound; an empty
// histogram reports 0.
func (hv *HistValue) Quantile(q float64) float64 {
	if hv.Count == 0 || len(hv.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hv.Count)
	cum := uint64(0)
	for i, c := range hv.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(hv.Bounds) {
			return hv.Bounds[len(hv.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = hv.Bounds[i-1]
		}
		hi := hv.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return hv.Bounds[len(hv.Bounds)-1]
}

func (h *Histogram) value() *HistValue {
	return &HistValue{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// sub returns hv - prev bucket-wise (prev nil or mismatched passes through).
func (hv *HistValue) sub(prev *HistValue) *HistValue {
	if prev == nil || len(prev.Counts) != len(hv.Counts) {
		return hv
	}
	out := &HistValue{
		Bounds: hv.Bounds,
		Counts: make([]uint64, len(hv.Counts)),
		Sum:    hv.Sum - prev.Sum,
		Count:  hv.Count - prev.Count,
	}
	for i := range hv.Counts {
		out.Counts[i] = hv.Counts[i] - prev.Counts[i]
	}
	return out
}

// ---------------------------------------------------------------------------
// Snapshot

// Value is one metric's state in a snapshot.
type Value struct {
	Name  string
	Desc  string
	Kind  Kind
	Uint  uint64     // counters
	Float float64    // gauges and formulas
	Hist  *HistValue // histograms
}

// Number returns the value as a float64 regardless of kind (histograms
// report their observation count).
func (v Value) Number() float64 {
	switch v.Kind {
	case KindCounter:
		return float64(v.Uint)
	case KindHistogram:
		return float64(v.Hist.Count)
	default:
		return v.Float
	}
}

// Snapshot is a point-in-time (or interval, via DeltaSince) capture of every
// registered metric, sorted by name.
type Snapshot struct {
	Values []Value
	index  map[string]int
}

// Get looks a metric up by name.
func (s *Snapshot) Get(name string) (Value, bool) {
	i, ok := s.index[name]
	if !ok {
		return Value{}, false
	}
	return s.Values[i], true
}

// Number returns the named metric as a float64 (0 when absent).
func (s *Snapshot) Number(name string) float64 {
	v, ok := s.Get(name)
	if !ok {
		return 0
	}
	return v.Number()
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() *Snapshot { return r.snapshot(nil) }

// DeltaSince captures the current values minus prev's counters and histogram
// buckets; gauges stay instantaneous and formulas are re-evaluated over the
// subtracted values, so rate formulas report the interval rate.
func (r *Registry) DeltaSince(prev *Snapshot) *Snapshot { return r.snapshot(prev) }

func (r *Registry) snapshot(prev *Snapshot) *Snapshot {
	s := &Snapshot{index: make(map[string]int, len(r.entries))}
	get := func(name string) float64 {
		if i, ok := s.index[name]; ok {
			return s.Values[i].Number()
		}
		return 0
	}
	// Formulas read metrics registered before them, so evaluate in
	// registration order, then sort for presentation.
	for _, e := range r.entries {
		v := Value{Name: e.name, Desc: e.desc, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			v.Uint = e.counter()
			if prev != nil {
				if pv, ok := prev.Get(e.name); ok {
					v.Uint -= pv.Uint
				}
			}
		case KindGauge:
			v.Float = e.gauge()
		case KindHistogram:
			v.Hist = e.hist.value()
			if prev != nil {
				if pv, ok := prev.Get(e.name); ok && pv.Hist != nil {
					v.Hist = v.Hist.sub(pv.Hist)
				}
			}
		case KindFormula:
			v.Float = e.formula(get)
		}
		s.index[e.name] = len(s.Values)
		s.Values = append(s.Values, v)
	}
	sort.Slice(s.Values, func(i, j int) bool { return s.Values[i].Name < s.Values[j].Name })
	for i, v := range s.Values {
		s.index[v.Name] = i
	}
	return s
}

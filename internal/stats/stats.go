// Package stats is a gem5-style hierarchical statistics registry. Metrics
// carry dotted names ("pipeline.rename.serialize_stalls", "cache.l2.misses")
// and one of four kinds:
//
//   - Counter: a monotonically increasing uint64, so existing hot-path `x++`
//     counters are published without changing their representation.
//   - Gauge: an instantaneous float64 (occupancy, free-list depth).
//   - Histogram: bucketed observations (load latency).
//   - Formula: a float64 derived from other metrics at snapshot time (IPC,
//     miss rates), written with Writer.Ratio. Formulas are re-evaluated over
//     *deltas* too, so an interval snapshot reports interval IPC, not
//     cumulative IPC.
//
// A Registry is a list of sources. A source is one function that writes
// every metric it owns, with its current value, each time a snapshot is
// taken (Writer.Counter, Gauge, Histogram and Ratio); nothing is read
// through a per-metric closure, so publishing a component's counters costs
// nothing until a snapshot asks for them. Once every source has written, the
// snapshot sorts the metrics by name, checks the names (CheckName, and no
// name twice: either panics, since names come from code or from a validated
// configuration), then evaluates the ratios in write order. A ratio reads
// every counter, gauge and histogram in the snapshot, whichever source wrote
// it, and the value of a ratio written before it; any other name reads as 0.
//
// Snapshot/DeltaSince give cumulative and interval views, and three
// renderers serialize a snapshot: an aligned text dump (Text), a flat JSON
// object (WriteJSON), and Prometheus text exposition (WritePrometheus).
//
// Add is not synchronized: add every source before the first snapshot.
// Snapshots only read the source list, so they may run concurrently when
// the sources allow it: the server's source reads only atomics, lock-guarded
// state and SyncHistograms, while a simulated machine's source belongs to
// the machine's goroutine.
package stats

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kind classifies a metric.
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

// CheckName reports whether name is a valid metric name: non-empty and free
// of whitespace. A snapshot panics on an invalid name, so a name built from
// input (a cache level's configured name) is checked when the input arrives.
func CheckName(name string) error {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		return fmt.Errorf("stats: invalid metric name %q", name)
	}
	return nil
}

// Source writes every metric it owns, with its current value, into w. A
// registry calls each of its sources once per snapshot.
type Source func(w *Writer)

// Registry is the ordered list of sources one snapshot reads.
type Registry struct {
	sources []Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add appends a source.
func (r *Registry) Add(src Source) { r.sources = append(r.sources, src) }

// Writer collects the metrics of one snapshot from the registry's sources.
type Writer struct {
	prev   *Snapshot // DeltaSince's base; nil for a cumulative snapshot
	vals   []Value
	ratios []ratio
}

// ratio is a Writer.Ratio call, evaluated once every source has written.
type ratio struct {
	name, num string
	scale     float64
	den       []string
}

// base returns name's value in the delta base, if there is one.
func (w *Writer) base(name string) (Value, bool) {
	if w.prev == nil {
		return Value{}, false
	}
	return w.prev.Get(name)
}

// Counter writes a monotonically increasing value; a delta snapshot
// subtracts the base's value.
func (w *Writer) Counter(name, desc string, v uint64) {
	if pv, ok := w.base(name); ok {
		v -= pv.Uint
	}
	w.vals = append(w.vals, Value{Name: name, Desc: desc, Kind: KindCounter, Uint: v})
}

// Gauge writes an instantaneous value, which deltas leave as it is.
func (w *Writer) Gauge(name, desc string, v float64) {
	w.vals = append(w.vals, Value{Name: name, Desc: desc, Kind: KindGauge, Float: v})
}

// Histogram writes a histogram's state, which the snapshot keeps: hv must
// be a copy the caller no longer writes (Histogram.Value), with
// len(Counts) == len(Bounds)+1, the last being the overflow bucket. A delta
// snapshot subtracts the base's buckets.
func (w *Writer) Histogram(name, desc string, hv *HistValue) {
	if pv, ok := w.base(name); ok && pv.Hist != nil {
		hv = hv.sub(pv.Hist)
	}
	w.vals = append(w.vals, Value{Name: name, Desc: desc, Kind: KindHistogram, Hist: hv})
}

// Ratio writes the derived value scale × num / (den[0] + den[1] + ...),
// evaluated over the snapshot once every source has written (the package
// doc says which names it reads). It reads 0 while the denominator is 0.
func (w *Writer) Ratio(name, desc string, scale float64, num string, den ...string) {
	w.vals = append(w.vals, Value{Name: name, Desc: desc, Kind: KindFormula})
	w.ratios = append(w.ratios, ratio{name: name, num: num, scale: scale, den: den})
}

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

// Value returns a copy of the histogram's current state.
func (s *SyncHistogram) Value() *HistValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Value()
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

// Value returns a copy of the histogram's current state.
func (h *Histogram) Value() *HistValue {
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
// metric the registry's sources write, sorted by name.
type Snapshot struct {
	Values []Value
}

// find binary-searches the sorted values for name.
func (s *Snapshot) find(name string) (int, bool) {
	return slices.BinarySearchFunc(s.Values, name, func(v Value, name string) int {
		return strings.Compare(v.Name, name)
	})
}

// Get looks a metric up by name.
func (s *Snapshot) Get(name string) (Value, bool) {
	i, ok := s.find(name)
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
	w := Writer{prev: prev}
	for _, src := range r.sources {
		src(&w)
	}
	s := &Snapshot{Values: w.vals}
	slices.SortFunc(s.Values, func(a, b Value) int { return strings.Compare(a.Name, b.Name) })
	for i, v := range s.Values {
		if err := CheckName(v.Name); err != nil {
			panic(err.Error())
		}
		if i > 0 && s.Values[i-1].Name == v.Name {
			panic(fmt.Sprintf("stats: duplicate metric %q", v.Name))
		}
	}
	for _, f := range w.ratios {
		var d float64
		for _, n := range f.den {
			d += s.Number(n)
		}
		v := 0.0
		if d != 0 {
			v = f.scale * (s.Number(f.num) / d)
		}
		i, _ := s.find(f.name)
		s.Values[i].Float = v
	}
	return s
}

package bpred

import (
	"fmt"

	"specmpk/internal/stats"
)

// WriteMetrics writes the direction predictor's counters under prefix
// (conventionally "bpred.tage").
func (t *TAGE) WriteMetrics(w *stats.Writer, prefix string) {
	w.Counter(prefix+".lookups", "direction predictions made", t.Lookups)
	w.Counter(prefix+".mispredicts", "resolved direction mispredictions", t.Mispredicts)
	w.Counter(prefix+".base_provides", "predictions served by the bimodal base", t.BaseProvides)
	for i, n := range t.TableProvides {
		w.Counter(fmt.Sprintf("%s.t%d_provides", prefix, i),
			fmt.Sprintf("predictions served by tagged table %d (hist %d)", i, histLens[i]), n)
	}
	w.Ratio(prefix+".mispredict_rate", "mispredictions per lookup", 1, prefix+".mispredicts", prefix+".lookups")
}

// WriteMetrics writes the BTB's counters under prefix ("bpred.btb").
func (b *BTB) WriteMetrics(w *stats.Writer, prefix string) {
	w.Counter(prefix+".lookups", "target lookups", b.Lookups)
	w.Counter(prefix+".hits", "target lookup hits", b.Hits)
	w.Counter(prefix+".mispredicts", "indirect-target mispredictions", b.Mispredicts)
	w.Ratio(prefix+".hit_rate", "hits per lookup", 1, prefix+".hits", prefix+".lookups")
}

// WriteMetrics writes the RAS's counters under prefix ("bpred.ras").
func (s *RAS) WriteMetrics(w *stats.Writer, prefix string) {
	w.Counter(prefix+".pushes", "speculative call pushes", s.Pushes)
	w.Counter(prefix+".pops", "speculative return pops", s.Pops)
	w.Counter(prefix+".restores", "checkpoint restores on squash", s.Restores)
	w.Counter(prefix+".mispredicts", "return-target mispredictions", s.Mispredicts)
}

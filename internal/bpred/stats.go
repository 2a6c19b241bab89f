package bpred

import (
	"fmt"

	"specmpk/internal/stats"
)

// Register publishes the direction predictor's counters under prefix
// (conventionally "bpred.tage").
func (t *TAGE) Register(r *stats.Registry, prefix string) {
	r.Counter(prefix+".lookups", "direction predictions made", func() uint64 { return t.Lookups })
	r.Counter(prefix+".mispredicts", "resolved direction mispredictions", func() uint64 { return t.Mispredicts })
	r.Counter(prefix+".base_provides", "predictions served by the bimodal base", func() uint64 { return t.BaseProvides })
	for i := range t.TableProvides {
		i := i
		r.Counter(fmt.Sprintf("%s.t%d_provides", prefix, i),
			fmt.Sprintf("predictions served by tagged table %d (hist %d)", i, histLens[i]),
			func() uint64 { return t.TableProvides[i] })
	}
	r.Ratio(prefix+".mispredict_rate", "mispredictions per lookup", 1, prefix+".mispredicts", prefix+".lookups")
}

// Register publishes the BTB's counters under prefix ("bpred.btb").
func (b *BTB) Register(r *stats.Registry, prefix string) {
	r.Counter(prefix+".lookups", "target lookups", func() uint64 { return b.Lookups })
	r.Counter(prefix+".hits", "target lookup hits", func() uint64 { return b.Hits })
	r.Counter(prefix+".mispredicts", "indirect-target mispredictions", func() uint64 { return b.Mispredicts })
	r.Ratio(prefix+".hit_rate", "hits per lookup", 1, prefix+".hits", prefix+".lookups")
}

// Register publishes the RAS's counters under prefix ("bpred.ras").
func (s *RAS) Register(r *stats.Registry, prefix string) {
	r.Counter(prefix+".pushes", "speculative call pushes", func() uint64 { return s.Pushes })
	r.Counter(prefix+".pops", "speculative return pops", func() uint64 { return s.Pops })
	r.Counter(prefix+".restores", "checkpoint restores on squash", func() uint64 { return s.Restores })
	r.Counter(prefix+".mispredicts", "return-target mispredictions", func() uint64 { return s.Mispredicts })
}

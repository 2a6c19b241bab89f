package bpred

import (
	"fmt"
	"testing"

	"specmpk/internal/stats"
)

func TestProviderCountersSumToLookups(t *testing.T) {
	pat := []bool{true, true, false, true, false, false, true}
	p := NewTAGE()
	train(p, func(i int) (uint64, bool) { return 0x2000, pat[i%len(pat)] }, 2000, 2000)

	if p.Lookups != 4000 {
		t.Fatalf("Lookups = %d, want 4000", p.Lookups)
	}
	sum := p.BaseProvides
	for _, n := range p.TableProvides {
		sum += n
	}
	if sum != p.Lookups {
		t.Fatalf("provider counters sum to %d, want Lookups %d (base %d, tagged %v)",
			sum, p.Lookups, p.BaseProvides, p.TableProvides)
	}
	// A history-dependent pattern must pull predictions off the base table.
	if p.BaseProvides == p.Lookups {
		t.Fatal("tagged tables never provided a prediction for a periodic pattern")
	}
}

func TestBTBCounters(t *testing.T) {
	b := mustBTB(t, 64)
	b.Lookup(0x100) // cold miss
	b.Update(0x100, 0x200)
	if _, ok := b.Lookup(0x100); !ok {
		t.Fatal("BTB missed after update")
	}
	if b.Lookups != 2 || b.Hits != 1 {
		t.Fatalf("lookups=%d hits=%d, want 2/1", b.Lookups, b.Hits)
	}
}

func TestRASCounters(t *testing.T) {
	r := NewRAS(8)
	cp := r.Checkpoint()
	r.Push(0x100)
	r.Push(0x200)
	if got := r.Pop(); got != 0x200 {
		t.Fatalf("Pop = %#x, want 0x200", got)
	}
	r.Restore(cp)
	if r.Pushes != 2 || r.Pops != 1 || r.Restores != 1 {
		t.Fatalf("pushes=%d pops=%d restores=%d, want 2/1/1", r.Pushes, r.Pops, r.Restores)
	}
}

func TestRegisterExposesAllComponents(t *testing.T) {
	p := NewTAGE()
	b := mustBTB(t, 64)
	s := NewRAS(8)
	reg := stats.NewRegistry()
	reg.Add(func(w *stats.Writer) {
		p.WriteMetrics(w, "bpred.tage")
		b.WriteMetrics(w, "bpred.btb")
		s.WriteMetrics(w, "bpred.ras")
	})

	p.Predict(0x1000)
	b.Lookup(0x1000)
	s.Push(0x1004)

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"bpred.tage.lookups": 1,
		"bpred.btb.lookups":  1,
		"bpred.ras.pushes":   1,
	} {
		if got := snap.Number(name); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	// Every tagged table gets its own provider counter.
	for i := 0; i < numTagged; i++ {
		name := fmt.Sprintf("bpred.tage.t%d_provides", i)
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("tagged table %d has no provider metric %q", i, name)
		}
	}
}

package tlb

import (
	"math/rand"
	"testing"

	"specmpk/internal/mem"
)

func mustNew(t *testing.T, cfg Config) *TLB {
	t.Helper()
	tl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func pte(ppn uint64, key uint8) mem.PTE {
	return mem.PTE{PPN: ppn, Prot: mem.ProtRW, PKey: key, Valid: true}
}

func TestMissThenFillThenHit(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	if _, hit := tl.Lookup(5); hit {
		t.Fatal("cold lookup must miss")
	}
	tl.Fill(5, pte(99, 3))
	got, hit := tl.Lookup(5)
	if !hit {
		t.Fatal("lookup after fill must hit")
	}
	if got.PPN != 99 || got.PKey != 3 {
		t.Fatalf("wrong cached pte %+v", got)
	}
	if tl.Stats.Hits != 1 || tl.Stats.Misses != 1 || tl.Stats.Fills != 1 {
		t.Fatalf("stats %+v", tl.Stats)
	}
}

func TestFillRefreshesInPlace(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	tl.Fill(5, pte(99, 3))
	tl.Fill(5, pte(99, 7)) // pkey_mprotect changed the key
	got, _ := tl.Lookup(5)
	if got.PKey != 7 {
		t.Fatalf("refreshed key = %d", got.PKey)
	}
	if tl.Occupancy() != 1 {
		t.Fatal("refresh must not duplicate")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	tl := mustNew(t, Config{Entries: 8, Ways: 2, WalkLatency: 10}) // 4 sets
	// VPNs 0, 4, 8 all map to set 0.
	tl.Fill(0, pte(1, 0))
	tl.Fill(4, pte(2, 0))
	tl.Lookup(0) // 0 is MRU
	tl.Fill(8, pte(3, 0))
	if !tl.Probe(0) || !tl.Probe(8) {
		t.Fatal("0 and 8 must be resident")
	}
	if tl.Probe(4) {
		t.Fatal("4 must have been evicted as LRU")
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	tl.Fill(9, pte(1, 0))
	tl.InvalidatePage(9)
	if tl.Probe(9) {
		t.Fatal("page must be gone")
	}
	tl.InvalidatePage(1234) // no-op, must not panic
}

func TestFlushAll(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	for i := uint64(0); i < 40; i++ {
		tl.Fill(i, pte(i, 0))
	}
	if tl.Occupancy() == 0 {
		t.Fatal("fills must populate")
	}
	tl.FlushAll()
	if tl.Occupancy() != 0 {
		t.Fatal("flush must empty the TLB")
	}
	if tl.Stats.Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	tl.Fill(1, pte(1, 0))
	s := tl.Stats
	tl.Probe(1)
	tl.Probe(2)
	if tl.Stats != s {
		t.Fatal("Probe must not change stats")
	}
}

func TestMissRate(t *testing.T) {
	tl := mustNew(t, DefaultDataConfig())
	tl.Lookup(1)
	tl.Fill(1, pte(1, 0))
	tl.Lookup(1)
	if tl.Stats.MissRate() != 0.5 {
		t.Fatalf("miss rate %f", tl.Stats.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("idle miss rate")
	}
}

func TestBadConfigErrors(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 6, Ways: 2}, // non-pow2 sets
		{Entries: 8, Ways: 0},
		{Entries: 8, Ways: -2},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	tl := mustNew(t, Config{Entries: 16, Ways: 4, WalkLatency: 10})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vpn := uint64(r.Intn(256))
		if _, hit := tl.Lookup(vpn); !hit {
			tl.Fill(vpn, pte(vpn, uint8(vpn%16)))
		}
		if tl.Occupancy() > 16 {
			t.Fatal("occupancy exceeded capacity")
		}
		if !tl.Probe(vpn) {
			t.Fatal("just-filled vpn must be resident")
		}
	}
}

package pipeline_test

import (
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
	"specmpk/internal/profile"
	"specmpk/internal/trace"
	"specmpk/internal/workload"
)

// runStream runs prog to halt under cfg with a ring and a pkey audit ledger
// both attached to the one event stream. The ring must drop nothing.
func runStream(t *testing.T, cfg pipeline.Config, prog *asm.Program) (*trace.Ring, *profile.Ledger, pipeline.Stats) {
	t.Helper()
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	ring, led := trace.NewRing(1<<16), profile.NewLedger()
	m.Events = trace.Fanout{ring, led}
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("%v: %v", cfg.Mode, err)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("%v: ring dropped %d events", cfg.Mode, ring.Dropped())
	}
	return ring, led, m.Stats
}

func catalogue(t *testing.T, name string) *asm.Program {
	t.Helper()
	p, _ := workload.ByName(name)
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRingAndLedgerAgree: the ring, the ledger and the machine's own
// counters tally the same occurrences, under every policy. 541.leela_r
// holds loads at the head for forwarding and TLB deferral, 403.gcc for the
// PKRU Load Check.
func TestRingAndLedgerAgree(t *testing.T) {
	progs := map[string]*asm.Program{
		"wrpkruLoop":  pipeline.WrpkruLoop(t),
		"541.leela_r": catalogue(t, "541.leela_r"),
		"403.gcc":     catalogue(t, "403.gcc"),
	}
	for name, prog := range progs {
		for _, mode := range pipeline.RegisteredModes() {
			cfg := pipeline.DefaultConfig()
			cfg.Mode = mode
			ring, led, st := runStream(t, cfg, prog)
			count := ring.CountByKind()
			cycles := map[trace.Kind]uint64{}
			for _, e := range ring.Events() {
				cycles[e.Kind] += e.N
			}
			tot := led.Totals()
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"upgrades_opened", tot.UpgradesOpened, count[trace.KindUpgradeOpen]},
				{"upgrades_committed", tot.UpgradesCommitted, count[trace.KindUpgradeCommit]},
				{"upgrades_squashed", tot.UpgradesSquashed, count[trace.KindUpgradeSquash]},
				{"upgrade_window_cycles", tot.UpgradeWindowCycles, cycles[trace.KindUpgradeCommit] + cycles[trace.KindUpgradeSquash]},
				{"loads_stalled", tot.LoadsStalled, count[trace.KindLoadStall]},
				{"load_stall_cycles", tot.LoadStallCycles, cycles[trace.KindLoadReplay]},
				{"stores_no_forward", tot.StoresNoForward, count[trace.KindNoForward]},
				{"no_forward_cycles", tot.NoForwardCycles, cycles[trace.KindNoForwardCommit]},
				{"tlb_defers", tot.TLBDefers, count[trace.KindTLBDefer]},
				{"tlb_defer_cycles", tot.TLBDeferCycles, cycles[trace.KindTLBFill]},
				{"load_stall events vs Stats.LoadsStalledTillHead", count[trace.KindLoadStall], st.LoadsStalledTillHead},
				{"no_forward events vs Stats.StoresNoForward", count[trace.KindNoForward], st.StoresNoForward},
				{"wrpkru_retire events vs Stats.Wrpkru", count[trace.KindWrpkruRetire], st.Wrpkru},
			} {
				if c.got != c.want {
					t.Errorf("%s/%v: %s = %d, want %d", name, mode, c.what, c.got, c.want)
				}
			}
			if st.Wrpkru == 0 {
				t.Errorf("%s/%v: retired no WRPKRU", name, mode)
			}
		}
	}
}

// TestEveryEventKindFires: each declared kind is emitted somewhere.
// 541.leela_r under specmpk covers all but store_replay, which only the
// StallSuspectStores ablation (with memory-dependence speculation) takes.
func TestEveryEventKindFires(t *testing.T) {
	prog := catalogue(t, "541.leela_r")
	cfg := pipeline.DefaultConfig()
	cfg.Mode = pipeline.ModeSpecMPK
	ring, _, _ := runStream(t, cfg, prog)
	fired := ring.CountByKind()
	cfg.MemDepSpeculation, cfg.StallSuspectStores = true, true
	ring, _, _ = runStream(t, cfg, prog)
	fired[trace.KindStoreReplay] += ring.CountByKind()[trace.KindStoreReplay]
	for _, k := range []trace.Kind{
		trace.KindSquash, trace.KindWrpkruRetire,
		trace.KindUpgradeOpen, trace.KindUpgradeCommit, trace.KindUpgradeSquash,
		trace.KindLoadStall, trace.KindLoadReplay, trace.KindStoreReplay,
		trace.KindNoForward, trace.KindNoForwardCommit,
		trace.KindTLBDefer, trace.KindTLBFill,
	} {
		if fired[k] == 0 {
			t.Errorf("no %s event fired", k)
		}
	}
}

package pipeline

import (
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/trace"
	"specmpk/internal/workload"
)

// wrpkruLoop is a small program with branches, memory traffic and permission
// switches — enough to populate every CPI bucket and event kind.
func wrpkruLoop(t *testing.T) *asm.Program {
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(9, 200).Movi(10, 0)
		f.Movi(11, heapBase)
		f.Movi(12, int64(pkruProtect))
		f.Movi(13, int64(pkruOpen))
		f.Label("loop")
		f.Wrpkru(12)
		f.St(9, 11, 0)
		f.Wrpkru(13)
		f.Ld(14, 11, 0)
		f.Add(10, 10, 14)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
	})
}

func TestCPIStackInvariantSmall(t *testing.T) {
	p := wrpkruLoop(t)
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(2_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.Stats.Cycles == 0 {
			t.Fatalf("%v: no cycles simulated", mode)
		}
		if got, want := m.Stats.CPI.Sum(), m.Stats.Cycles; got != want {
			t.Errorf("%v: CPI stack sums to %d, want %d cycles (stack %+v)",
				mode, got, want, m.Stats.CPI)
		}
	}
}

func TestCPIStackInvariantWorkloads(t *testing.T) {
	// A representative catalogue slice: branchy, memory-bound and
	// WRPKRU-dense behaviours all hit different buckets.
	for _, name := range []string{"541.leela_r", "520.omnetpp_r", "505.mcf_r"} {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing from catalogue", name)
		}
		prog, err := prof.Build(workload.VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes() {
			m := newMachine(t, mode, prog)
			if err := m.RunInsts(30_000, 400_000); err != nil && err != ErrCycleLimit {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			if got, want := m.Stats.CPI.Sum(), m.Stats.Cycles; got != want {
				t.Errorf("%s/%v: CPI stack sums to %d, want %d cycles (stack %+v)",
					name, mode, got, want, m.Stats.CPI)
			}
			if mode == ModeSerialized && m.Stats.CPI.Serialize == 0 {
				t.Errorf("%s/serialized: expected nonzero serialize bucket", name)
			}
		}
	}
}

func TestStatsRegistryMatchesCounters(t *testing.T) {
	m := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	s := m.StatsRegistry().Snapshot()
	for name, want := range map[string]uint64{
		"pipeline.cycles":              m.Stats.Cycles,
		"pipeline.insts":               m.Stats.Insts,
		"pipeline.retire.wrpkru":       m.Stats.Wrpkru,
		"pipeline.retire.loads":        m.Stats.Loads,
		"pipeline.retire.stores":       m.Stats.Stores,
		"pipeline.retire.branches":     m.Stats.Branches,
		"pipeline.cpi.base":            m.Stats.CPI.Base,
		"pipeline.rename.stall_cycles": m.Stats.RenameStallCycles,
		"cache.l1d.hits":               m.Hier.L1D.Stats.Hits,
		"cache.l1i.misses":             m.Hier.L1I.Stats.Misses,
		"cache.l2.misses":              m.Hier.L2.Stats.Misses,
		"cache.l3.misses":              m.Hier.L3.Stats.Misses,
		"tlb.dtlb.hits":                m.DTLB.Stats.Hits,
		"tlb.itlb.hits":                m.ITLB.Stats.Hits,
		"bpred.tage.lookups":           m.tage.Lookups,
		"bpred.btb.lookups":            m.btb.Lookups,
	} {
		v, ok := s.Get(name)
		if !ok {
			t.Errorf("metric %q not registered", name)
			continue
		}
		if v.Uint != want {
			t.Errorf("%s = %d, want %d", name, v.Uint, want)
		}
	}
	if s.Number("pipeline.retire.wrpkru") == 0 {
		t.Error("wrpkru loop retired no WRPKRUs")
	}
	if ipc := s.Number("pipeline.ipc"); ipc <= 0 || ipc > float64(m.Cfg.IssueWidth) {
		t.Errorf("pipeline.ipc = %v out of range", ipc)
	}
}

func TestStatsRegistryIsCached(t *testing.T) {
	m := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
	if m.StatsRegistry() != m.StatsRegistry() {
		t.Fatal("StatsRegistry must return the same registry every call")
	}
}

func TestEventTraceEmission(t *testing.T) {
	m := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
	m.Events = trace.NewRing(1 << 16)
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	byKind := m.Events.CountByKind()
	if got, want := byKind[trace.KindWrpkruRetire], m.Stats.Wrpkru; got != want {
		t.Errorf("wrpkru_retire events = %d, want %d (retired WRPKRUs)", got, want)
	}
	if m.Stats.Mispredicts > 0 && byKind[trace.KindSquash] == 0 {
		t.Error("mispredicts occurred but no squash events were emitted")
	}
	for _, e := range m.Events.Events() {
		if e.Cycle > m.Stats.Cycles {
			t.Fatalf("event %+v stamped after the last cycle %d", e, m.Stats.Cycles)
		}
	}
}

func TestNilEventRingIsFree(t *testing.T) {
	// Tracing off (Events == nil) must not change behaviour or crash.
	m := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
	mt := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
	mt.Events = trace.NewRing(1 << 16)
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := mt.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Cycles != mt.Stats.Cycles || m.Stats.Insts != mt.Stats.Insts {
		t.Fatalf("tracing changed execution: %d/%d cycles, %d/%d insts",
			m.Stats.Cycles, mt.Stats.Cycles, m.Stats.Insts, mt.Stats.Insts)
	}
}

// auditCounter is an AuditSink that counts events per kind.
type auditCounter map[AuditKind]int

func (c auditCounter) Audit(e AuditEvent) { c[e.Kind]++ }

// TestUpgradeEventsWithoutAuditSink: the upgrade_open and upgrade_close
// trace events do not depend on an audit sink — an event ring alone records
// as many of them as a machine with both sinks attached.
func TestUpgradeEventsWithoutAuditSink(t *testing.T) {
	counts := func(audit bool) map[trace.Kind]uint64 {
		m := newMachine(t, ModeSpecMPK, wrpkruLoop(t))
		m.Events = trace.NewRing(1 << 16)
		if audit {
			m.Audit = auditCounter{}
		}
		if err := m.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		if m.Events.Dropped() != 0 {
			t.Fatalf("ring dropped %d events", m.Events.Dropped())
		}
		return m.Events.CountByKind()
	}
	alone, both := counts(false), counts(true)
	for _, k := range []trace.Kind{trace.KindUpgradeOpen, trace.KindUpgradeClose} {
		if both[k] == 0 {
			t.Fatalf("no %s events with both sinks attached", k)
		}
		if alone[k] != both[k] {
			t.Errorf("%s: %d events with only the ring, %d with both sinks", k, alone[k], both[k])
		}
	}
}

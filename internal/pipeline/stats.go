package pipeline

import (
	"specmpk/internal/stats"
)

// StatsRegistry returns the machine's unified metrics registry, building it
// on first use. Its one source (writeMetrics) writes every counter of the
// pipeline, memory hierarchy, TLBs and branch predictors under a dotted
// hierarchical name ("pipeline.rename.serialize_stalls", "cache.l2.misses",
// "bpred.btb.hits"), alongside derived formulas (IPC, miss rates) and the
// CPI-stack buckets, so one snapshot captures the whole machine. Observers
// add their own sources (profile.Ledger's audit.* counters).
func (m *Machine) StatsRegistry() *stats.Registry {
	if m.reg == nil {
		m.reg = stats.NewRegistry()
		m.reg.Add(m.writeMetrics)
	}
	return m.reg
}

// writeMetrics is the machine's metrics source.
func (m *Machine) writeMetrics(w *stats.Writer) {
	s := &m.Stats

	w.Counter("pipeline.cycles", "simulated cycles", s.Cycles)
	w.Counter("pipeline.insts", "retired instructions", s.Insts)
	w.Counter("pipeline.fetched", "instructions fetched (incl. wrong path)", s.Fetched)
	w.Counter("pipeline.renamed", "instructions renamed", s.Renamed)
	w.Counter("pipeline.issued", "instructions issued", s.IssuedN)
	w.Counter("pipeline.squashed", "instructions squashed", s.Squashed)

	w.Counter("pipeline.retire.branches", "retired conditional branches", s.Branches)
	w.Counter("pipeline.retire.mispredicts", "resolved control mispredictions", s.Mispredicts)
	w.Counter("pipeline.retire.calls", "retired calls", s.Calls)
	w.Counter("pipeline.retire.returns", "retired returns", s.Returns)
	w.Counter("pipeline.retire.loads", "retired loads", s.Loads)
	w.Counter("pipeline.retire.stores", "retired stores", s.Stores)
	w.Counter("pipeline.retire.wrpkru", "retired WRPKRU", s.Wrpkru)
	w.Counter("pipeline.retire.rdpkru", "retired RDPKRU", s.Rdpkru)

	w.Counter("pipeline.rename.stall_cycles", "cycles rename wanted to but renamed nothing", s.RenameStallCycles)
	w.Counter("pipeline.rename.serialize_stalls", "rename stalls from WRPKRU/RDPKRU serialization", s.SerializeStallCycles)
	w.Counter("pipeline.rename.pkru_full_stalls", "rename stalls from a full ROB_pkru", s.PkruFullStallCycles)

	w.Counter("pipeline.mem.loads_stalled_till_head", "loads deferred to the AL head (PKRU Load Check / TLB defer)", s.LoadsStalledTillHead)
	w.Counter("pipeline.mem.stores_no_forward", "stores with forwarding suppressed (PKRU Store Check / TLB defer)", s.StoresNoForward)
	w.Counter("pipeline.mem.loads_forwarded", "loads served by store-to-load forwarding", s.LoadsForwarded)
	w.Counter("pipeline.mem.forward_blocked_loads", "loads blocked by a no-forward store", s.ForwardBlockedLoads)
	w.Counter("pipeline.mem.order_violations", "memory-dependence-speculation squashes", s.MemOrderViolations)

	w.Counter("pipeline.faults", "faults delivered at retirement", s.Faults)
	w.Counter("pipeline.pkey_faults", "protection-key faults", s.PkeyFaults)

	for b, cb := range cpiBuckets {
		w.Counter("pipeline.cpi."+cb.name, cb.desc, s.CPI.Bucket(CPIBucket(b)))
	}

	w.Histogram("pipeline.load_latency", "observed load latency (cycles)", &stats.HistValue{
		Bounds: append([]float64(nil), loadLatBounds[:]...),
		Counts: append([]uint64(nil), m.loadLatCounts[:]...),
		Sum:    float64(m.loadLatSum),
		Count:  m.loadLatN,
	})

	w.Gauge("pipeline.inflight", "occupied active-list entries", float64(m.alCnt))
	w.Gauge("pipeline.free_regs", "free physical registers", float64(len(m.freeList)))

	w.Ratio("pipeline.ipc", "retired instructions per cycle", 1, "pipeline.insts", "pipeline.cycles")
	w.Ratio("pipeline.mispredict_rate", "mispredictions per retired branch",
		1, "pipeline.retire.mispredicts", "pipeline.retire.branches")
	w.Ratio("pipeline.wrpkru_per_kinst", "retired WRPKRU per 1000 retired instructions",
		1000, "pipeline.retire.wrpkru", "pipeline.insts")

	m.Hier.WriteMetrics(w, "cache")
	m.DTLB.WriteMetrics(w, "tlb.dtlb")
	m.ITLB.WriteMetrics(w, "tlb.itlb")
	m.tage.WriteMetrics(w, "bpred.tage")
	m.btb.WriteMetrics(w, "bpred.btb")
	m.ras.WriteMetrics(w, "bpred.ras")
}

package pipeline

import (
	"specmpk/internal/stats"
)

// StatsRegistry returns the machine's unified metrics registry, building it
// on first use. Every counter in the pipeline, memory hierarchy, TLBs and
// branch predictors is registered under a dotted hierarchical name
// ("pipeline.rename.serialize_stalls", "cache.l2.misses", "bpred.btb.hits"),
// alongside derived formulas (IPC, miss rates) and the CPI-stack buckets, so
// one snapshot captures the whole machine.
func (m *Machine) StatsRegistry() *stats.Registry {
	if m.reg != nil {
		return m.reg
	}
	r := stats.NewRegistry()
	s := &m.Stats

	r.Counter("pipeline.cycles", "simulated cycles", func() uint64 { return s.Cycles })
	r.Counter("pipeline.insts", "retired instructions", func() uint64 { return s.Insts })
	r.Counter("pipeline.fetched", "instructions fetched (incl. wrong path)", func() uint64 { return s.Fetched })
	r.Counter("pipeline.renamed", "instructions renamed", func() uint64 { return s.Renamed })
	r.Counter("pipeline.issued", "instructions issued", func() uint64 { return s.IssuedN })
	r.Counter("pipeline.squashed", "instructions squashed", func() uint64 { return s.Squashed })

	r.Counter("pipeline.retire.branches", "retired conditional branches", func() uint64 { return s.Branches })
	r.Counter("pipeline.retire.mispredicts", "resolved control mispredictions", func() uint64 { return s.Mispredicts })
	r.Counter("pipeline.retire.calls", "retired calls", func() uint64 { return s.Calls })
	r.Counter("pipeline.retire.returns", "retired returns", func() uint64 { return s.Returns })
	r.Counter("pipeline.retire.loads", "retired loads", func() uint64 { return s.Loads })
	r.Counter("pipeline.retire.stores", "retired stores", func() uint64 { return s.Stores })
	r.Counter("pipeline.retire.wrpkru", "retired WRPKRU", func() uint64 { return s.Wrpkru })
	r.Counter("pipeline.retire.rdpkru", "retired RDPKRU", func() uint64 { return s.Rdpkru })

	r.Counter("pipeline.rename.stall_cycles", "cycles rename wanted to but renamed nothing", func() uint64 { return s.RenameStallCycles })
	r.Counter("pipeline.rename.serialize_stalls", "rename stalls from WRPKRU/RDPKRU serialization", func() uint64 { return s.SerializeStallCycles })
	r.Counter("pipeline.rename.pkru_full_stalls", "rename stalls from a full ROB_pkru", func() uint64 { return s.PkruFullStallCycles })

	r.Counter("pipeline.mem.loads_stalled_till_head", "loads deferred to the AL head (PKRU Load Check / TLB defer)", func() uint64 { return s.LoadsStalledTillHead })
	r.Counter("pipeline.mem.stores_no_forward", "stores with forwarding suppressed (PKRU Store Check / TLB defer)", func() uint64 { return s.StoresNoForward })
	r.Counter("pipeline.mem.loads_forwarded", "loads served by store-to-load forwarding", func() uint64 { return s.LoadsForwarded })
	r.Counter("pipeline.mem.forward_blocked_loads", "loads blocked by a no-forward store", func() uint64 { return s.ForwardBlockedLoads })
	r.Counter("pipeline.mem.order_violations", "memory-dependence-speculation squashes", func() uint64 { return s.MemOrderViolations })

	r.Counter("pipeline.faults", "faults delivered at retirement", func() uint64 { return s.Faults })
	r.Counter("pipeline.pkey_faults", "protection-key faults", func() uint64 { return s.PkeyFaults })

	for b, cb := range cpiBuckets {
		r.Counter("pipeline.cpi."+cb.name, cb.desc, func() uint64 { return s.CPI.Bucket(CPIBucket(b)) })
	}

	r.HistogramFunc("pipeline.load_latency", "observed load latency (cycles)", m.loadLatValue)

	r.Gauge("pipeline.inflight", "occupied active-list entries", func() float64 { return float64(m.alCnt) })
	r.Gauge("pipeline.free_regs", "free physical registers", func() float64 { return float64(len(m.freeList)) })

	r.Formula("pipeline.ipc", "retired instructions per cycle",
		func(get func(string) float64) float64 {
			return ratio(get("pipeline.insts"), get("pipeline.cycles"))
		})
	r.Formula("pipeline.mispredict_rate", "mispredictions per retired branch",
		func(get func(string) float64) float64 {
			return ratio(get("pipeline.retire.mispredicts"), get("pipeline.retire.branches"))
		})
	r.Formula("pipeline.wrpkru_per_kinst", "retired WRPKRU per 1000 retired instructions",
		func(get func(string) float64) float64 {
			return 1000 * ratio(get("pipeline.retire.wrpkru"), get("pipeline.insts"))
		})

	m.Hier.Register(r, "cache")
	m.DTLB.Register(r, "tlb.dtlb")
	m.ITLB.Register(r, "tlb.itlb")
	m.tage.Register(r, "bpred.tage")
	m.btb.Register(r, "bpred.btb")
	m.ras.Register(r, "bpred.ras")

	m.reg = r
	return r
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package specmpk

// The benchmark harness regenerates every table and figure of the paper's
// evaluation under `go test -bench`. Each benchmark runs the corresponding
// experiment end to end and reports the paper's headline quantity as a
// custom metric, so `go test -bench=. -benchmem` prints the reproduced
// series next to the usual ns/op columns:
//
//	BenchmarkFig9  ... avg-speedup-%  max-speedup-%
//
// cmd/specmpk-bench prints the same experiments as full row-by-row tables.

import (
	"context"
	"testing"

	"specmpk/internal/attack"
	"specmpk/internal/experiments"
	"specmpk/internal/pipeline"
	"specmpk/internal/server"
	"specmpk/internal/simpoint"
	"specmpk/internal/workload"
)

// onOwnServer runs one iteration of a job-based experiment on a server of
// its own, so no iteration is answered from results an earlier one stored.
func onOwnServer[T any](b *testing.B, run func(experiments.Runner) (T, error)) T {
	b.Helper()
	srv := server.New(server.Options{})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	v, err := run(experiments.Runner{Jobs: srv.Run})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkTable1Properties evaluates the executable isolation-technique
// models (Table I) and reports the measured MPK domain-switch cost.
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "MPK" {
				b.ReportMetric(r.SwitchCycles, "mpk-switch-cycles")
			}
			if r.Name == "Mprotect" {
				b.ReportMetric(r.SwitchCycles, "mprotect-switch-cycles")
			}
		}
	}
}

// BenchmarkFig3 reproduces Figure 3: the speedup available from speculative
// WRPKRU execution and the rename-stall share under serialization.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := onOwnServer(b, experiments.Fig3)
		var sum, max, stall float64
		for _, r := range rows {
			sum += r.Speedup
			if r.Speedup > max {
				max = r.Speedup
			}
			stall += r.RenameStallPct
		}
		n := float64(len(rows))
		b.ReportMetric(100*(sum/n-1), "avg-speedup-%")
		b.ReportMetric(100*(max-1), "max-speedup-%")
		b.ReportMetric(stall/n, "avg-rename-stall-%")
	}
}

// BenchmarkFig4 reproduces Figure 4: compiler-transformation versus WRPKRU
// serialization overhead on the serialized machine.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := onOwnServer(b, experiments.Fig4)
		var comp, ser float64
		for _, r := range rows {
			comp += r.CompilerOverheadPct
			ser += r.SerializeOverhead
		}
		n := float64(len(rows))
		b.ReportMetric(comp/n, "avg-compiler-overhead-%")
		b.ReportMetric(ser/n, "avg-serialization-overhead-%")
	}
}

// BenchmarkFig9 reproduces the headline result (Figure 9): SpecMPK's
// normalized IPC over the serialized baseline across the full catalogue.
// Paper: 12.21% average, 48.42% max.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := onOwnServer(b, experiments.Fig9)
		s := experiments.Summarize(rows)
		b.ReportMetric(s.AvgSpecMPKSpeedupPct, "avg-speedup-%")
		b.ReportMetric(s.MaxSpecMPKSpeedupPct, "max-speedup-%")
		b.ReportMetric(s.AvgGapToNonSecurePct, "gap-to-nonsecure-%")
	}
}

// BenchmarkFig10 reproduces Figure 10: the dynamic WRPKRU density
// distribution over the workload catalogue.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Runner{})
		if err != nil {
			b.Fatal(err)
		}
		var max float64
		for _, r := range rows {
			if r.WrpkruPerKilo > max {
				max = r.WrpkruPerKilo
			}
		}
		b.ReportMetric(max, "max-wrpkru-per-kinst")
	}
}

// BenchmarkFig11 reproduces the ROB_pkru sensitivity sweep (Figure 11) on
// the subset §VII-1 names, reporting the densest workload's recovery from
// the 2-entry to the 16-entry configuration.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := onOwnServer(b, experiments.Fig11)
		for _, r := range rows {
			if r.Workload == "520.omnetpp_r (SS)" {
				b.ReportMetric(r.Norm[2], "omnetpp-2-entry-x")
				b.ReportMetric(r.Norm[16], "omnetpp-16-entry-x")
				b.ReportMetric(r.NonSecureNorm, "omnetpp-nonsecure-x")
			}
		}
	}
}

// BenchmarkFig13 reproduces the flush+reload attack (Figure 13), reporting
// the reload latencies at the secret index on both microarchitectures —
// low on NonSecure (leak), DRAM-high on SpecMPK (blocked).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		secret := int(res.NonSecure.Cfg.SecretValue)
		b.ReportMetric(float64(res.NonSecure.Latency[secret]), "nonsecure-secret-cycles")
		b.ReportMetric(float64(res.SpecMPK.Latency[secret]), "specmpk-secret-cycles")
		if !res.NonSecure.Leaked() || res.SpecMPK.Leaked() {
			b.Fatal("leak pattern does not match the paper")
		}
	}
}

// BenchmarkHWCost recomputes the §VIII storage accounting (paper: 93 B,
// 0.19% of the 48 KB L1D).
func BenchmarkHWCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hc := experiments.HWCost()
		b.ReportMetric(hc.TotalBytes(), "added-bytes")
		b.ReportMetric(hc.PercentOfL1D(48<<10), "pct-of-L1D")
	}
}

// BenchmarkSimPointMethodology exercises the §VII methodology end to end on
// one workload: profile, cluster, checkpoint, warm-started detailed
// intervals, and the cluster-weighted estimate.
func BenchmarkSimPointMethodology(b *testing.B) {
	p, _ := workload.ByName("541.leela_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simpoint.Config{IntervalLen: 10_000, MaxInsts: 500_000, K: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := simpoint.BuildPlan(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats := make([]pipeline.Stats, len(plan.Points))
		for j := range plan.Points {
			if stats[j], err = plan.SimulatePoint(context.Background(), j, pipeline.DefaultConfig(), prog); err != nil {
				b.Fatal(err)
			}
		}
		est, err := plan.Estimate(stats)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(est.IPC, "estimated-ipc")
	}
}

// --- engineering benchmarks: simulator throughput ---------------------------

func benchSimThroughput(b *testing.B, mode pipeline.Mode) {
	p, _ := workload.ByName("502.gcc_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.Mode = mode
		m, err := pipeline.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(500_000_000); err != nil {
			b.Fatal(err)
		}
		insts += m.Stats.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Msim-insts/s")
}

// BenchmarkSimulatorSerialized measures host-side simulation throughput of
// the serialized machine.
func BenchmarkSimulatorSerialized(b *testing.B) { benchSimThroughput(b, pipeline.ModeSerialized) }

// BenchmarkSimulatorNonSecure measures host-side simulation throughput of
// the NonSecure machine.
func BenchmarkSimulatorNonSecure(b *testing.B) { benchSimThroughput(b, pipeline.ModeNonSecure) }

// BenchmarkSimulatorSpecMPK measures host-side simulation throughput of the
// SpecMPK machine.
func BenchmarkSimulatorSpecMPK(b *testing.B) { benchSimThroughput(b, pipeline.ModeSpecMPK) }

// BenchmarkFunctionalSim measures the reference interpreter's throughput.
func BenchmarkFunctionalSim(b *testing.B) {
	p, _ := workload.ByName("502.gcc_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := NewReference(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(50_000_000, 1); err != nil {
			b.Fatal(err)
		}
		insts += m.Stats.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkVDomScaling runs the key-virtualization sweep (extension; the
// paper's §III-B >16-keys scenario) and reports the overhead at moderate
// oversubscription — the paper's reference point is 4.2%.
func BenchmarkVDomScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.VDomSweep()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Domains == 24 {
				b.ReportMetric(r.OverheadPct, "overhead-at-24-sessions-%")
			}
		}
	}
}

// BenchmarkTLBDeferralAblation quantifies the §V-C5 conservatism: SpecMPK
// with and without the stall-on-TLB-miss rule over a TLB-heavy workload.
func BenchmarkTLBDeferralAblation(b *testing.B) {
	p, _ := workload.ByName("505.mcf_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ipc := map[bool]float64{}
		for _, ablate := range []bool{false, true} {
			cfg := pipeline.DefaultConfig()
			cfg.Mode = pipeline.ModeSpecMPK
			cfg.NoTLBDeferral = ablate
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
			ipc[ablate] = m.Stats.IPC()
		}
		b.ReportMetric(100*(ipc[true]/ipc[false]-1), "deferral-cost-%")
	}
}

// BenchmarkPrefetchAblation measures the extension next-line prefetcher's
// effect on a memory-heavy workload (off in the Table III baseline).
func BenchmarkPrefetchAblation(b *testing.B) {
	p, _ := workload.ByName("505.mcf_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ipc := map[bool]float64{}
		for _, pf := range []bool{false, true} {
			cfg := pipeline.DefaultConfig()
			cfg.Caches.L2.NextLinePrefetch = pf
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
			ipc[pf] = m.Stats.IPC()
		}
		b.ReportMetric(100*(ipc[true]/ipc[false]-1), "L2-prefetch-gain-%")
	}
}

// BenchmarkTLBSizeSensitivity sweeps the DTLB capacity on the
// footprint-heaviest workload, reporting how much of SpecMPK's §V-C5
// deferral exposure depends on TLB reach.
func BenchmarkTLBSizeSensitivity(b *testing.B) {
	p, _ := workload.ByName("505.mcf_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{16, 64, 256} {
			cfg := pipeline.DefaultConfig()
			cfg.DTLB.Entries = entries
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(m.Stats.IPC(), "ipc-dtlb-"+itoa(entries))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig9Variance estimates the synthetic-workload sensitivity of the
// headline number: the Fig. 9-style SpecMPK speedup measured over three
// generator replications (same statistical profiles, different programs).
func BenchmarkFig9Variance(b *testing.B) {
	names := []string{"520.omnetpp_r", "500.perlbench_r", "453.povray", "557.xz_r"}
	for i := 0; i < b.N; i++ {
		lo, hi := 1e9, -1e9
		for seed := int64(0); seed < 3; seed++ {
			var sum float64
			for _, name := range names {
				p, _ := workload.ByName(name)
				prog, err := p.BuildSeeded(workload.VariantFull, seed)
				if err != nil {
					b.Fatal(err)
				}
				var ipc [2]float64
				for mi, mode := range []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeSpecMPK} {
					cfg := pipeline.DefaultConfig()
					cfg.Mode = mode
					m, err := pipeline.New(cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Run(500_000_000); err != nil {
						b.Fatal(err)
					}
					ipc[mi] = m.Stats.IPC()
				}
				sum += ipc[1] / ipc[0]
			}
			avg := 100 * (sum/float64(len(names)) - 1)
			if avg < lo {
				lo = avg
			}
			if avg > hi {
				hi = avg
			}
		}
		b.ReportMetric(lo, "min-avg-speedup-%")
		b.ReportMetric(hi, "max-avg-speedup-%")
		b.ReportMetric(hi-lo, "seed-spread-pp")
	}
}

// BenchmarkMemDepAblation quantifies the §V-C2 design justification under
// optimistic memory disambiguation: SpecMPK's executed-but-no-forward
// suspect stores versus the withheld-address variant. Reports memory-order
// violations per 100k instructions and the IPC cost of the ablation.
func BenchmarkMemDepAblation(b *testing.B) {
	p, _ := workload.ByName("520.omnetpp_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run := func(stall bool) pipeline.Stats {
			cfg := pipeline.DefaultConfig()
			cfg.Mode = pipeline.ModeSpecMPK
			cfg.MemDepSpeculation = true
			cfg.StallSuspectStores = stall
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
			return m.Stats
		}
		paper := run(false)
		ablated := run(true)
		b.ReportMetric(float64(paper.MemOrderViolations)*100_000/float64(paper.Insts),
			"violations-per-100k")
		b.ReportMetric(float64(ablated.MemOrderViolations)*100_000/float64(ablated.Insts),
			"ablated-violations-per-100k")
		b.ReportMetric(100*(paper.IPC()/ablated.IPC()-1), "paper-choice-gain-%")
	}
}

// BenchmarkAttackGadget measures one full flush+reload round on SpecMPK.
func BenchmarkAttackGadget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := attack.Run(pipeline.ModeSpecMPK, attack.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Command specmpk-sim runs one workload (or an assembly file) on the
// cycle-level simulator and prints the run's statistics.
//
// Usage:
//
//	specmpk-sim -workload 520.omnetpp_r [-mode specmpk] [-variant full]
//	specmpk-sim -asm prog.s [-mode serialized]
//	specmpk-sim -workload 520.omnetpp_r -stats-out s.json -trace-out t.jsonl
//	specmpk-sim -list
//
// Observability outputs:
//
//	-stats-out FILE       unified metrics registry as JSON (all pipeline,
//	                      cache, TLB and branch-predictor metrics)
//	-stats-interval N     with -stats-out: JSONL of per-N-cycle snapshot
//	                      deltas (interval IPC etc.), final cumulative last
//	-prom-out FILE        the same registry in Prometheus text exposition
//	-trace-out FILE       the core's event stream as JSONL: squash,
//	                      wrpkru_retire, upgrade_open/commit/squash,
//	                      load_stall, load_replay, store_replay, no_forward,
//	                      no_forward_commit, tlb_defer, tlb_fill
//	-konata-out FILE      per-instruction stage timeline in the Kanata format
//	                      (loadable by Konata / gem5-o3-pipeview viewers)
//	-profile-out FILE     per-PC/per-block profile (retired + CPI-stack cycle
//	                      attribution) and the pkey audit ledger as JSON
//	-annotate             print the annotated disassembly and the top-PC /
//	                      pkey-audit tables after the run
//	-cpuprofile FILE      pprof CPU profile of the simulator process itself
//	-memprofile FILE      pprof heap profile at exit (after a GC)
//	-traceparent H        join a W3C trace; -trace-out and -profile-out
//	                      artifacts are stamped with the trace ID (a fresh
//	                      one is minted when unset), so a file on disk links
//	                      back to the request or sweep that produced it
//
// All output paths are opened before the simulation starts, so a bad path
// fails immediately instead of after minutes of simulated execution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"specmpk/internal/asm"
	"specmpk/internal/otrace"
	"specmpk/internal/perf"
	"specmpk/internal/pipeline"
	"specmpk/internal/profile"
	"specmpk/internal/stats"
	"specmpk/internal/textplot"
	"specmpk/internal/trace"
	"specmpk/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "", "catalogue workload to run")
		asmFile  = flag.String("asm", "", "assembly file to run instead of a workload")
		mode     = flag.String("mode", "specmpk", "microarchitecture: "+strings.Join(pipeline.PolicyNames(), " | "))
		variant  = flag.String("variant", "full", "instrumentation: full | nop | none | rdpkru")
		robPkru  = flag.Int("robpkru", 8, "ROB_pkru entries")
		maxCyc   = flag.Uint64("cycles", 500_000_000, "cycle budget")
		cfgCyc   = flag.Uint64("max-cycles", 0, "Config.MaxCycles: the machine's own hard cycle budget (0 = none); a run that exhausts it stops with stopReason cycle_limit")
		list     = flag.Bool("list", false, "list catalogue workloads and exit")
		showDisq = flag.Bool("disasm", false, "print the program disassembly before running")
		traceN   = flag.Uint64("trace", 0, "print the first N retired instructions")
		pview    = flag.Uint64("pipeview", 0, "print a pipeline diagram for the first N retired instructions")
		timeline = flag.Bool("timeline", false, "print an IPC-over-time chart (1k-cycle samples)")

		statsOut      = flag.String("stats-out", "", "write the metrics registry as JSON to this file")
		statsInterval = flag.Uint64("stats-interval", 0, "with -stats-out: emit JSONL snapshot deltas every N cycles")
		promOut       = flag.String("prom-out", "", "write the metrics registry in Prometheus text format to this file")
		traceOut      = flag.String("trace-out", "", "write the microarchitectural event trace as JSONL to this file")
		traceBuf      = flag.Int("trace-buf", 1<<20, "event ring-buffer capacity for -trace-out (oldest dropped)")
		konataOut     = flag.String("konata-out", "", "write a Kanata-format pipeline trace to this file")
		konataN       = flag.Uint64("konata-n", 10_000, "retired instructions captured for -konata-out")
		profileOut    = flag.String("profile-out", "", "write the per-PC profile and pkey audit ledger as JSON to this file")
		annotate      = flag.Bool("annotate", false, "print the annotated disassembly, top-PC table and pkey audit ledger after the run")
		cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator process to `file`")
		memprofile    = flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")
		traceparent   = flag.String("traceparent", "", "W3C traceparent to join; run artifacts are stamped with its trace ID (malformed = fresh root)")
	)
	flag.Parse()

	// Resolve the run's trace identity: join the propagated trace when a
	// well-formed -traceparent arrives, otherwise mint a fresh root whenever
	// any artifact will need stamping. The ID ties -trace-out/-profile-out
	// files back to the request (or sweep) that produced them.
	var runTrace string
	if *traceparent != "" || *traceOut != "" || *profileOut != "" {
		if sc, ok := otrace.ParseTraceparent(*traceparent); ok {
			runTrace = sc.Trace.String()
		} else {
			if *traceparent != "" {
				fmt.Fprintf(os.Stderr, "specmpk-sim: warning: malformed -traceparent %q; starting a fresh trace\n", *traceparent)
			}
			runTrace = otrace.NewTraceID().String()
		}
		fmt.Fprintf(os.Stderr, "specmpk-sim: trace %s\n", runTrace)
	}

	if *list {
		for _, p := range workload.Catalog() {
			fmt.Printf("%-20s %-9s %-4s target %5.1f wrpkru/kinst\n",
				p.Name, p.Suite, p.Scheme, p.TargetWrpkruPerKilo)
		}
		return
	}

	// Open every output file before simulating, so a bad path fails
	// immediately instead of after minutes of simulated execution.
	var out struct {
		stats, prom, trace, konata, profile *os.File
	}
	for _, o := range []struct {
		flag string
		path string
		dst  **os.File
	}{
		{"-stats-out", *statsOut, &out.stats},
		{"-prom-out", *promOut, &out.prom},
		{"-trace-out", *traceOut, &out.trace},
		{"-konata-out", *konataOut, &out.konata},
		{"-profile-out", *profileOut, &out.profile},
	} {
		f, err := createOut(o.flag, o.path)
		if err != nil {
			fatal(err)
		}
		*o.dst = f
	}
	if out.trace != nil && *traceBuf <= 0 {
		fatal(fmt.Errorf("-trace-buf must be positive (got %d)", *traceBuf))
	}

	// Profile the simulator process itself (self-profiling, distinct from the
	// simulated-program -profile-out). Files open now, alongside the other
	// outputs; both exit paths flush them.
	stop, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	prog, err := buildProgram(*wl, *asmFile, *variant)
	if err != nil {
		fatal(err)
	}
	if *showDisq {
		fmt.Print(prog.Disassemble())
	}
	// The paper's §IX-B security analysis assumes WRPKRU values are
	// speculation-independent load-immediates; warn when a program breaks
	// that discipline.
	for _, v := range asm.CheckWrpkruDiscipline(prog) {
		fmt.Fprintf(os.Stderr, "specmpk-sim: warning: WRPKRU discipline (§IX-B): %v\n", v)
	}

	cfg := pipeline.DefaultConfig()
	cfg.ROBPkruSize = *robPkru
	cfg.MaxCycles = *cfgCyc
	cfg.Mode, err = pipeline.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	// Config.MaxCycles caps the machine from inside; fold it into the driver
	// budget too so the interval/timeline loops (which re-run the machine in
	// chunks) terminate at the same point instead of spinning on a machine
	// that can no longer advance.
	budget := *maxCyc
	if cfg.MaxCycles > 0 && cfg.MaxCycles < budget {
		budget = cfg.MaxCycles
	}

	m, err := pipeline.New(cfg, prog)
	if err != nil {
		fatal(err)
	}
	// One retire record feeds the -trace log as the run goes, and a capture
	// of as many records as the larger stage renderer needs (-pipeview,
	// -konata-out).
	keepRecs := *pview
	if *konataOut != "" && *konataN > keepRecs {
		keepRecs = *konataN
	}
	var recs []trace.Record
	if *traceN > 0 || keepRecs > 0 {
		retired := uint64(0)
		m.OnTrace = func(r trace.Record) {
			if retired < *traceN {
				fmt.Printf("retire %6d  cyc %8d  0x%06x  %s\n", r.Seq, r.Retire, r.PC, r.Inst)
			}
			retired++
			if uint64(len(recs)) < keepRecs {
				recs = append(recs, r)
			}
		}
	}

	// The event stream feeds the -trace-out ring and the pkey audit ledger.
	var sinks trace.Fanout
	var ring *trace.Ring
	if out.trace != nil {
		ring = trace.NewRing(*traceBuf)
		sinks = append(sinks, ring)
	}
	reg := m.StatsRegistry()
	var prof *profile.Profiler
	var ledger *profile.Ledger
	if out.profile != nil || *annotate {
		prof = profile.New(prog)
		ledger = profile.NewLedger()
		m.Prof = prof
		sinks = append(sinks, ledger)
		ledger.Register(reg)
	}
	if len(sinks) > 0 {
		m.Events = sinks
	}
	var runErr error
	switch {
	case *statsInterval > 0 && out.stats != nil:
		runErr = runWithIntervals(m, reg, out.stats, *statsInterval, budget)
	case *timeline:
		const sample = 1000
		var ipcs []float64
		lastI := uint64(0)
		for m.Cycle() < budget && !m.Halted() && m.Fault() == nil && runErr == nil {
			runErr = m.RunInsts(^uint64(0), m.Cycle()+sample)
			if runErr == pipeline.ErrCycleLimit {
				runErr = nil // just the sampling boundary
			}
			ipcs = append(ipcs, float64(m.Stats.Insts-lastI)/sample)
			lastI = m.Stats.Insts
		}
		fmt.Print(textplot.Timeline("IPC over time (1k-cycle samples)", ipcs, 100))
	default:
		runErr = m.Run(budget)
	}

	if *pview > 0 {
		n := recs
		if uint64(len(n)) > *pview {
			n = n[:*pview]
		}
		fmt.Print(trace.Pipeview(n, 100))
	}
	if out.konata != nil {
		if err := writeKonata(out.konata, recs, *konataN); err != nil {
			fatal(err)
		}
	}
	if out.stats != nil && *statsInterval == 0 {
		if err := finishOut(out.stats, func(f *os.File) error {
			return reg.Snapshot().WriteJSON(f)
		}); err != nil {
			fatal(err)
		}
	}
	if out.prom != nil {
		if err := finishOut(out.prom, func(f *os.File) error {
			return reg.Snapshot().WritePrometheus(f)
		}); err != nil {
			fatal(err)
		}
	}
	if out.trace != nil {
		if err := finishOut(out.trace, func(f *os.File) error {
			// First line is run metadata — the trace ID that links this
			// artifact to the request that produced it; event rows follow.
			if err := json.NewEncoder(f).Encode(struct {
				TraceID string `json:"traceID"`
			}{runTrace}); err != nil {
				return err
			}
			return trace.WriteJSONL(f, ring.Events())
		}); err != nil {
			fatal(err)
		}
		if d := ring.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "specmpk-sim: event ring overflowed; oldest %d events dropped (raise -trace-buf)\n", d)
		}
	}
	if prof != nil {
		rep := prof.Report()
		if out.profile != nil {
			if err := finishOut(out.profile, func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(struct {
					TraceID string              `json:"traceID,omitempty"`
					Mode    string              `json:"mode"`
					Report  *profile.Report     `json:"profile"`
					Audit   []profile.LedgerRow `json:"audit"`
				}{runTrace, cfg.Mode.String(), rep, ledger.Rows()})
			}); err != nil {
				fatal(err)
			}
		}
		if *annotate {
			fmt.Println()
			profile.Annotate(os.Stdout, prog, rep)
			fmt.Println()
			rep.Table(os.Stdout, 10)
			fmt.Println("\npkey audit ledger:")
			profile.LedgerTable(os.Stdout, ledger.Rows())
			fmt.Println()
		}
	}
	printStats(m, cfg)
	if runErr != nil {
		fatal(runErr)
	}
	flushProfiles()
}

// stopProfiles finalizes -cpuprofile/-memprofile capture. Set once profiling
// starts; flushProfiles clears it after the first flush so the normal exit
// path and fatal can both call it.
var stopProfiles func() error

func flushProfiles() {
	if stopProfiles == nil {
		return
	}
	stop := stopProfiles
	stopProfiles = nil
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "specmpk-sim: profile: %v\n", err)
	}
}

// intervalRow is one line of the -stats-interval JSONL stream.
type intervalRow struct {
	Cycle   uint64         `json:"cycle"`
	Final   bool           `json:"final,omitempty"`
	Metrics map[string]any `json:"metrics"`
}

// runWithIntervals advances the machine in interval-sized chunks, writing a
// JSONL line per chunk with that interval's metric deltas (rate formulas are
// re-evaluated over the delta, so pipeline.ipc is the interval IPC), and a
// final cumulative snapshot marked "final".
func runWithIntervals(m *pipeline.Machine, reg *stats.Registry, f *os.File, interval, maxCyc uint64) error {
	defer f.Close()
	enc := json.NewEncoder(f)
	prev := reg.Snapshot()
	var runErr error
	for m.Cycle() < maxCyc && !m.Halted() && m.Fault() == nil && runErr == nil {
		next := m.Cycle() + interval
		if next > maxCyc {
			next = maxCyc
		}
		runErr = m.RunInsts(^uint64(0), next)
		if runErr == pipeline.ErrCycleLimit {
			runErr = nil // just the sampling boundary
		}
		delta := reg.DeltaSince(prev)
		prev = reg.Snapshot()
		if err := enc.Encode(intervalRow{Cycle: m.Cycle(), Metrics: delta.Flat()}); err != nil {
			return err
		}
	}
	if err := enc.Encode(intervalRow{Cycle: m.Cycle(), Final: true, Metrics: reg.Snapshot().Flat()}); err != nil {
		return err
	}
	return runErr
}

func buildProgram(wl, asmFile, variant string) (*asm.Program, error) {
	switch {
	case wl != "" && asmFile != "":
		return nil, fmt.Errorf("use -workload or -asm, not both")
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		return asm.Parse(string(src))
	case wl != "":
		p, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (try -list)", wl)
		}
		v, err := workload.ParseVariant(variant)
		if err != nil {
			return nil, err
		}
		return p.Build(v)
	}
	return nil, fmt.Errorf("need -workload or -asm (or -list)")
}

func writeKonata(f *os.File, recs []trace.Record, n uint64) error {
	if uint64(len(recs)) > n {
		recs = recs[:n]
	}
	return finishOut(f, func(f *os.File) error {
		return trace.WriteKonata(f, recs)
	})
}

// createOut opens an output file named by flagName, or returns nil for an
// unset flag. Called before the simulation starts so path errors surface
// up front.
func createOut(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return f, nil
}

// finishOut writes through fn and closes the file, reporting the first error.
func finishOut(f *os.File, fn func(*os.File) error) error {
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats dumps the full unified registry — every pipeline, cache, TLB
// and branch-predictor metric — instead of a hand-picked subset.
func printStats(m *pipeline.Machine, cfg pipeline.Config) {
	fmt.Printf("mode %v (ROB_pkru=%d)\n", cfg.Mode, cfg.ROBPkruSize)
	m.StatsRegistry().Snapshot().WriteText(os.Stdout)
	if f := m.Fault(); f != nil {
		fmt.Printf("fault              %v\n", f)
	}
}

func fatal(err error) {
	flushProfiles() // a partial CPU profile still beats a truncated file
	fmt.Fprintf(os.Stderr, "specmpk-sim: %v\n", err)
	os.Exit(1)
}

package experiments

import (
	"encoding/json"
	"io"

	"specmpk/internal/hwcost"
	"specmpk/internal/isolation"
	"specmpk/internal/pipeline"
)

// WriteJSON emits any experiment's rows as indented JSON wrapped in an
// envelope naming the experiment — the machine-readable path for plotting
// scripts (`specmpk-bench -json ...`).
func WriteJSON(w io.Writer, experiment string, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string `json:"experiment"`
		Rows       any    `json:"rows"`
	}{Experiment: experiment, Rows: rows})
}

// Experiment is one entry of the experiment table specmpk-bench runs.
type Experiment struct {
	Name string
	Help string // one line, for the usage text
	// Run runs the experiment once and returns its JSON rows and its
	// rendered text.
	Run func(Runner) (rows any, text string, err error)
}

// experiment builds a table entry from a typed run and its renderer. The
// JSON rows are the run's value, or what rows makes of it when non-nil.
func experiment[T any](name, help string, run func(Runner) (T, error), render func(T) string, rows func(T) any) Experiment {
	return Experiment{Name: name, Help: help, Run: func(r Runner) (any, string, error) {
		v, err := run(r)
		if err != nil {
			return nil, "", err
		}
		var out any = v
		if rows != nil {
			out = rows(v)
		}
		return out, render(v), nil
	}}
}

// Experiments is every experiment, in the order `specmpk-bench all` runs
// them (all but diff, whose tables profile already prints).
var Experiments = []Experiment{
	experiment("table1", "isolation-technique property matrix (Table I)",
		func(Runner) ([]isolation.Properties, error) { return Table1() }, RenderTable1, nil),
	experiment("table2", "SpecMPK's additional source operands (Table II)",
		func(Runner) ([]Table2Row, error) { return Table2(), nil }, RenderTable2, nil),
	experiment("table3", "simulated machine configuration (Table III)",
		func(Runner) (pipeline.Config, error) { return pipeline.DefaultConfig(), nil },
		func(pipeline.Config) string { return RenderTable3() }, nil),
	experiment("fig3", "speculative-WRPKRU speedup + rename-stall share (Figure 3)", Fig3, RenderFig3, nil),
	experiment("fig4", "compiler vs serialization overhead breakdown (Figure 4)", Fig4, RenderFig4, nil),
	experiment("fig9", "normalized IPC of SpecMPK and NonSecure (Figure 9)", Fig9, RenderFig9, nil),
	experiment("fig10", "WRPKRU per kilo-instruction (Figure 10)", Fig10, RenderFig10, nil),
	experiment("fig11", "ROB_pkru size sensitivity (Figure 11)", Fig11, RenderFig11, nil),
	experiment("fig13", "flush+reload attack latencies (Figure 13)",
		func(Runner) (Fig13Result, error) { return Fig13() }, RenderFig13,
		func(res Fig13Result) any {
			return struct {
				NonSecure []int `json:"nonsecureLatency"`
				SpecMPK   []int `json:"specmpkLatency"`
				Threshold int   `json:"threshold"`
			}{res.NonSecure.Latency[:], res.SpecMPK.Latency[:], res.NonSecure.Threshold}
		}),
	experiment("hwcost", "added sequential state (Section VIII)",
		func(Runner) (hwcost.Breakdown, error) { return HWCost(), nil }, RenderHWCost,
		func(b hwcost.Breakdown) any { return b.Items }),
	experiment("vdom", "key-virtualization scaling sweep (extension; paper Section III-B)",
		func(Runner) ([]VDomRow, error) { return VDomSweep() }, RenderVDom, nil),
	{Name: "window", Help: "instruction-window sweep on the densest workload, or the one -workloads names (extension)",
		Run: func(r Runner) (any, string, error) {
			name := "520.omnetpp_r"
			if len(r.Workloads) == 1 {
				name = r.Workloads[0]
			}
			rows, err := WindowSweep(r, name)
			if err != nil {
				return nil, "", err
			}
			return rows, RenderWindow(name, rows), nil
		}},
	experiment("pkrusafe", "unsafe-library heap isolation overhead (extension; Section III-B)", PKRUSafe, RenderPKRUSafe, nil),
	experiment("rdpkru", "pkey_set read-modify-write vs load-immediate updates (Section V-C6)", Rdpkru, RenderRdpkru, nil),
	experiment("sampled", "SimPoint sampled-vs-full CPI error and job wall-clock speedup per workload×policy (§VII)",
		Sampled, RenderSampled, nil),
	experiment("stats", "metrics registry + CPI stack per workload×policy (-json: every metric; -modes restricts)",
		StatsRows, RenderStats, nil),
	experiment("profile", "per-PC attribution + pkey audit ledger per workload×mode, with differentials (-modes a,b)",
		ProfileRun, func(res *ProfileResult) string { return RenderProfile(res, 10) }, nil),
	experiment("diff", "only the cross-policy differential tables from profile",
		ProfileRun, func(res *ProfileResult) string { return RenderDiff(res, 10) },
		func(res *ProfileResult) any { return res.Diffs }),
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

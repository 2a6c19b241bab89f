package experiments

import (
	"fmt"
	"strings"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// StatsRow is one workload×mode row of the `stats` experiment: the machine's
// full unified metrics registry plus the CPI-stack decomposition, the
// machine-readable counterpart of every other experiment's derived numbers.
type StatsRow struct {
	Workload string            `json:"workload"`
	Mode     string            `json:"mode"`
	Cycles   uint64            `json:"cycles"`
	Insts    uint64            `json:"insts"`
	IPC      float64           `json:"ipc"`
	CPI      pipeline.CPIStack `json:"cpiStack"`
	Metrics  map[string]any    `json:"metrics"`
}

// StatsRows runs every catalogue workload under each microarchitecture
// policy (restrict with Runner.Modes) and captures the unified registry per
// run. It verifies the CPI-stack invariant (buckets sum exactly to the cycle
// count) on every row and fails loudly if the accounting ever leaks a cycle.
func StatsRows(r Runner) ([]StatsRow, error) {
	cat := r.catalog()
	modes := r.modes()
	runs, err := r.sweep(len(cat)*len(modes), func(i int) []api.JobSpec {
		return modeSpecs(cat[i/len(modes)], workload.VariantFull, modes[i%len(modes)])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]StatsRow, len(runs))
	for i, run := range runs {
		p, mode, s := cat[i/len(modes)], modes[i%len(modes)], run[0].Stats
		if s.CPI.Sum() != s.Cycles {
			return nil, fmt.Errorf("stats: %s/%v: CPI stack sums to %d, want %d cycles",
				p.Name, mode, s.CPI.Sum(), s.Cycles)
		}
		rows[i] = StatsRow{
			Workload: label(p),
			Mode:     mode.String(),
			Cycles:   s.Cycles,
			Insts:    s.Insts,
			IPC:      s.IPC(),
			CPI:      s.CPI,
			Metrics:  run[0].Metrics,
		}
	}
	return rows, nil
}

// RenderStats prints the CPI-stack decomposition per workload×mode as bucket
// shares — the attribution view of the Serialized-vs-SpecMPK gap.
func RenderStats(rows []StatsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI stack: per-cycle attribution (buckets sum to 100%% of cycles)\n")
	fmt.Fprintf(&b, "%-24s %-11s %6s %6s %6s %6s %6s %6s %6s\n",
		"workload", "mode", "ipc", "base%", "front%", "seri%", "pkru%", "mem%", "squa%")
	for _, r := range rows {
		pct := func(v uint64) float64 { return 100 * float64(v) / float64(r.Cycles) }
		fmt.Fprintf(&b, "%-24s %-11s %6.3f %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			r.Workload, r.Mode, r.IPC,
			pct(r.CPI.Base), pct(r.CPI.Frontend), pct(r.CPI.Serialize),
			pct(r.CPI.PkruFull), pct(r.CPI.Memory), pct(r.CPI.SquashRecovery))
	}
	return b.String()
}

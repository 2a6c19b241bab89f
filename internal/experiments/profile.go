package experiments

import (
	"fmt"
	"strings"

	"specmpk/internal/pipeline"
	"specmpk/internal/profile"
	"specmpk/internal/workload"
)

// ProfileRow is one workload×mode run with the per-PC profiler and the pkey
// audit ledger attached: where that policy's simulated time went, and what
// pkey security events it generated on the way.
type ProfileRow struct {
	Workload string              `json:"workload"`
	Mode     string              `json:"mode"`
	Cycles   uint64              `json:"cycles"`
	Insts    uint64              `json:"insts"`
	IPC      float64             `json:"ipc"`
	Report   *profile.Report     `json:"profile"`
	Ledger   []profile.LedgerRow `json:"audit"`
}

// ProfileDiff is one workload's cross-policy differential: the first
// requested mode (the baseline, conventionally the slower one) against one
// other mode, attributed per PC.
type ProfileDiff struct {
	Workload string              `json:"workload"`
	Diff     *profile.DiffReport `json:"diff"`
}

// ProfileResult bundles the profile experiment's output: the per-mode
// profiles plus the differential of every non-baseline mode against the
// first requested mode.
type ProfileResult struct {
	Rows  []ProfileRow  `json:"rows"`
	Diffs []ProfileDiff `json:"diffs"`
}

// runProfiled runs one workload under one mode with the profiler and audit
// ledger attached, and re-checks the profiler's sum invariant against the
// machine's own counters.
func runProfiled(p workload.Profile, mode pipeline.Mode) (ProfileRow, *profile.Report, error) {
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		return ProfileRow{}, nil, err
	}
	m, err := pipeline.New(modeConfig(mode), prog)
	if err != nil {
		return ProfileRow{}, nil, err
	}
	prof := profile.New(prog)
	ledger := profile.NewLedger()
	m.Prof = prof
	m.Events = ledger
	ledger.Register(m.StatsRegistry())
	if err := m.Run(500_000_000); err != nil {
		return ProfileRow{}, nil, fmt.Errorf("%s/%v: %w", p.Name, mode, err)
	}
	s := m.Stats
	if prof.Total != s.CPI {
		return ProfileRow{}, nil, fmt.Errorf("profile: %s/%v: per-PC CPI stacks sum to %+v, want %+v",
			p.Name, mode, prof.Total, s.CPI)
	}
	if prof.RetiredTotal != s.Insts {
		return ProfileRow{}, nil, fmt.Errorf("profile: %s/%v: profiler retired %d, machine retired %d",
			p.Name, mode, prof.RetiredTotal, s.Insts)
	}
	rep := prof.Report()
	row := ProfileRow{
		Workload: label(p),
		Mode:     mode.String(),
		Cycles:   s.Cycles,
		Insts:    s.Insts,
		IPC:      s.IPC(),
		Report:   rep,
		Ledger:   ledger.Rows(),
	}
	return row, rep, nil
}

// ProfileRun runs the profile experiment: every catalogue workload under
// each requested mode (Runner.Modes; default serialized,specmpk — the
// paper's headline pair), plus the per-PC differential of each non-baseline
// mode against the first.
func ProfileRun(r Runner) (*ProfileResult, error) {
	if len(r.Modes) == 0 {
		r.Modes = []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeSpecMPK}
	}
	cat := r.catalog()
	modes := r.modes()
	rows := make([]ProfileRow, len(cat)*len(modes))
	reports := make([]*profile.Report, len(rows))
	err := forEach(r.workers(), indices(rows), func(i int) error {
		row, rep, err := runProfiled(cat[i/len(modes)], modes[i%len(modes)])
		if err != nil {
			return err
		}
		rows[i], reports[i] = row, rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ProfileResult{Rows: rows}
	for w := range cat {
		base := w * len(modes)
		for mi := 1; mi < len(modes); mi++ {
			res.Diffs = append(res.Diffs, ProfileDiff{
				Workload: rows[base].Workload,
				Diff: profile.Diff(modes[0].String(), reports[base],
					modes[mi].String(), reports[base+mi]),
			})
		}
	}
	return res, nil
}

// RenderProfile prints the top-PC table and audit ledger per workload×mode.
func RenderProfile(res *ProfileResult, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: per-PC attribution of simulated time (top %d PCs per run)\n", topN)
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "\n== %s / %s: %d cycles, %d insts, IPC %.3f ==\n",
			r.Workload, r.Mode, r.Cycles, r.Insts, r.IPC)
		r.Report.Table(&b, topN)
		if len(r.Report.Blocks) > 0 {
			b.WriteByte('\n')
			r.Report.BlockTable(&b, 5)
		}
		fmt.Fprintf(&b, "\npkey audit ledger (%s / %s):\n", r.Workload, r.Mode)
		profile.LedgerTable(&b, r.Ledger)
	}
	if len(res.Diffs) > 0 {
		b.WriteByte('\n')
		b.WriteString(RenderDiff(res, topN))
	}
	return b.String()
}

// RenderDiff prints only the cross-policy differentials.
func RenderDiff(res *ProfileResult, topN int) string {
	var b strings.Builder
	for _, d := range res.Diffs {
		fmt.Fprintf(&b, "\n== differential: %s, %s vs %s ==\n",
			d.Workload, d.Diff.ModeA, d.Diff.ModeB)
		d.Diff.Table(&b, topN)
		b.WriteByte('\n')
		b.WriteString(d.Diff.Histogram(10, 40))
	}
	return b.String()
}

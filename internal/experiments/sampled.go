package experiments

import (
	"fmt"
	"strings"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// SampledRow is one workload×policy cell of the sampled-vs-full comparison:
// the SimPoint extrapolation, the full-fidelity truth it approximates, the
// measured error against the predicted bound, and the wall-clock speedup the
// sampling bought.
type SampledRow struct {
	Workload    string  `json:"workload"`
	Mode        string  `json:"mode"`
	SampledCPI  float64 `json:"sampledCPI"`
	FullCPI     float64 `json:"fullCPI"`
	ErrPct      float64 `json:"errPct"`   // measured: 100*(sampled-full)/full
	BoundPct    float64 `json:"boundPct"` // predicted: 100*ErrorBound
	WithinBound bool    `json:"withinBound"`
	SampledMS   float64 `json:"sampledMS"` // the sampled job's wall time
	FullMS      float64 `json:"fullMS"`    // the full job's wall time
	Speedup     float64 `json:"speedup"`   // FullMS / SampledMS (0 = not measured)
}

// sampledModes is the default policy set for the sampled experiment: the
// paper's three headline machines. -modes overrides.
func (r Runner) sampledModes() []pipeline.Mode {
	if len(r.Modes) > 0 {
		return r.Modes
	}
	return []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeSpecMPK, pipeline.ModeNonSecure}
}

// Sampled regenerates the sampled-vs-full validation table: per cell, one
// sampled-fidelity job and one full-fidelity job, both through the runner's
// job seam — so a local run takes the daemon's own sampled path, with its
// profile store shared across the policy sweep and its intervals fanned out
// over the pool. A workload is one sweep row, so its cells run in order and
// every policy after the first finds the workload's plan in the store. Wall
// times are the jobs' own (JobInfo.WallMS): a policy after a workload's
// first pays no profile build, and a cell with a job answered from a result
// store never ran, so its speedup is reported as 0 (rendered "-") rather
// than a fabricated ratio.
func Sampled(r Runner) ([]SampledRow, error) {
	modes := r.sampledModes()
	cat := r.catalog()
	runs, err := r.sweep(len(cat), func(i int) []api.JobSpec {
		var specs []api.JobSpec
		for _, full := range modeSpecs(cat[i], workload.VariantFull, modes...) {
			sampled := full
			sampled.Fidelity = api.FidelitySampled
			specs = append(specs, sampled, full)
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SampledRow, 0, len(cat)*len(modes))
	for i, run := range runs {
		for j, mode := range modes {
			s, f := run[2*j], run[2*j+1]
			if s.Sampled == nil {
				return nil, fmt.Errorf("%s/%v: sampled job returned no sampled section", cat[i].Name, mode)
			}
			fullCPI := float64(f.Stats.Cycles) / float64(f.Stats.Insts)
			row := SampledRow{
				Workload:   label(cat[i]),
				Mode:       mode.String(),
				SampledCPI: s.Sampled.CPI,
				FullCPI:    fullCPI,
				ErrPct:     100 * (s.Sampled.CPI - fullCPI) / fullCPI,
				BoundPct:   100 * s.Sampled.ErrorBound,
			}
			if s.info.WallMS > 0 && f.info.WallMS > 0 {
				row.SampledMS = s.info.WallMS
				row.FullMS = f.info.WallMS
				row.Speedup = f.info.WallMS / s.info.WallMS
			}
			row.WithinBound = row.ErrPct >= -row.BoundPct && row.ErrPct <= row.BoundPct
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderSampled prints the validation table plus the aggregate the
// methodology is judged by: every cell's measured error inside its bound,
// and the wall-clock it saved.
func RenderSampled(rows []SampledRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled simulation: SimPoint extrapolation vs full fidelity (paper §VII methodology)\n")
	fmt.Fprintf(&b, "%-24s %-12s %9s %9s %8s %8s %7s %9s\n",
		"workload", "mode", "sampled", "full", "err%", "bound%", "ok", "speedup")
	within, speedSum, speedN := 0, 0.0, 0
	for _, r := range rows {
		ok := "yes"
		if !r.WithinBound {
			ok = "NO"
		} else {
			within++
		}
		speed := "-"
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%8.1fx", r.Speedup)
			speedSum += r.Speedup
			speedN++
		}
		fmt.Fprintf(&b, "%-24s %-12s %9.4f %9.4f %+7.1f%% %7.1f%% %7s %9s\n",
			r.Workload, r.Mode, r.SampledCPI, r.FullCPI, r.ErrPct, r.BoundPct, ok, speed)
	}
	fmt.Fprintf(&b, "%d/%d cells within their error bound", within, len(rows))
	if speedN > 0 {
		fmt.Fprintf(&b, "; mean wall-clock speedup %.1fx over %d measured cells", speedSum/float64(speedN), speedN)
	}
	b.WriteByte('\n')
	return b.String()
}

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
// over the pool. Wall times are the jobs' own (JobInfo.WallMS): a policy
// after a workload's first pays no profile build, and a cell with a job
// answered from a result store never ran, so its speedup is reported as 0
// (rendered "-") rather than a fabricated ratio.
func Sampled(r Runner) ([]SampledRow, error) {
	modes := r.sampledModes()
	cat := r.catalog()
	rows := make([]SampledRow, len(cat)*len(modes))
	err := forEach(r.workers(), indices(cat), func(i int) error {
		p := cat[i]
		for j, mode := range modes {
			fSpec := api.SpecFor(p.Name, workload.VariantFull, modeConfig(mode))
			sSpec := fSpec
			sSpec.Fidelity = api.FidelitySampled
			sRes, sInfo, err := r.run(sSpec)
			if err != nil {
				return err
			}
			if sRes.Sampled == nil {
				return fmt.Errorf("%s/%v: sampled job returned no sampled section", p.Name, mode)
			}
			fRes, fInfo, err := r.run(fSpec)
			if err != nil {
				return err
			}
			fullCPI := float64(fRes.Stats.Cycles) / float64(fRes.Stats.Insts)
			row := SampledRow{
				Workload:   label(p),
				Mode:       mode.String(),
				SampledCPI: sRes.Sampled.CPI,
				FullCPI:    fullCPI,
				ErrPct:     100 * (sRes.Sampled.CPI - fullCPI) / fullCPI,
				BoundPct:   100 * sRes.Sampled.ErrorBound,
			}
			if sInfo.WallMS > 0 && fInfo.WallMS > 0 {
				row.SampledMS = sInfo.WallMS
				row.FullMS = fInfo.WallMS
				row.Speedup = fInfo.WallMS / sInfo.WallMS
			}
			row.WithinBound = row.ErrPct >= -row.BoundPct && row.ErrPct <= row.BoundPct
			rows[i*len(modes)+j] = row
		}
		return nil
	})
	return rows, err
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

package experiments

import (
	"fmt"
	"strings"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// WindowRow is one point of the instruction-window sweep (extension): how
// the speculative-WRPKRU benefit scales with the out-of-order window. The
// serialized machine's cost per WRPKRU is a pipeline drain, so larger
// windows widen the gap; SpecMPK must keep tracking NonSecure at every
// size (with the ROB_pkru scaled by the paper's 1/24 ratio).
type WindowRow struct {
	ALSize        int
	SerializedIPC float64
	NonSecureNorm float64
	SpecMPKNorm   float64
}

// WindowSizes are the swept active-list sizes (Table III's machine is 352).
var WindowSizes = []int{96, 192, 352}

// WindowSweep runs the densest workload across window sizes.
func WindowSweep(r Runner, workloadName string) ([]WindowRow, error) {
	if workloadName == "" {
		workloadName = "520.omnetpp_r"
	}
	p, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", workloadName)
	}
	runs, err := r.sweep(len(WindowSizes), func(i int) []api.JobSpec {
		al := WindowSizes[i]
		var specs []api.JobSpec
		for _, mode := range []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeNonSecure, pipeline.ModeSpecMPK} {
			cfg := modeConfig(mode)
			cfg.ALSize = al
			// Scale the auxiliary windows with the AL, as a real design
			// would; ROB_pkru follows the paper's 1/24 ratio.
			cfg.IQSize = al / 2
			cfg.LQSize = al / 3
			cfg.SQSize = al / 5
			cfg.PRFSize = al/2 + 104
			cfg.ROBPkruSize = max(al/24, 2)
			specs = append(specs, api.SpecFor(p.Name, workload.VariantFull, cfg))
		}
		return specs
	})
	if err != nil {
		return nil, err
	}
	rows := make([]WindowRow, len(runs))
	for i, run := range runs {
		ser, ns, sp := run[0].Stats, run[1].Stats, run[2].Stats
		rows[i] = WindowRow{
			ALSize:        WindowSizes[i],
			SerializedIPC: ser.IPC(),
			NonSecureNorm: ns.IPC() / ser.IPC(),
			SpecMPKNorm:   sp.IPC() / ser.IPC(),
		}
	}
	return rows, nil
}

// RenderWindow prints the sweep.
func RenderWindow(workloadName string, rows []WindowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Window sweep (extension): speculative-WRPKRU benefit vs AL size (%s)\n", workloadName)
	fmt.Fprintf(&b, "%-8s %10s %12s %10s\n", "AL", "ser. IPC", "nonsecure", "specmpk")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %10.3f %11.3fx %9.3fx\n",
			r.ALSize, r.SerializedIPC, r.NonSecureNorm, r.SpecMPKNorm)
	}
	b.WriteString("larger windows amplify the serialization penalty; SpecMPK keeps pace\n")
	b.WriteString("with NonSecure when ROB_pkru scales at the paper's 1/24 ratio.\n")
	return b.String()
}

package simpoint

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_sampled.json from the current simulator")

// goldenSampledWorkloads span the sampled path's footprints: mcf's large
// heap (the most checkpoint pages to restore), omnetpp's WRPKRU density,
// and gcc's indirect calls (BTB warm records).
var goldenSampledWorkloads = []string{"505.mcf_r", "520.omnetpp_r", "403.gcc"}

type goldenPoint struct {
	Index  uint64  `json:"index"`
	Weight float64 `json:"weight"`
	Cycles uint64  `json:"cycles"`
	Insts  uint64  `json:"insts"`
}

type goldenSampledRow struct {
	Workload string        `json:"workload"`
	Mode     string        `json:"mode"`
	Points   []goldenPoint `json:"points"`
	CPI      float64       `json:"cpi"`
	Bound    float64       `json:"bound"`
	Cycles   uint64        `json:"cycles"`
}

// TestGoldenSampled pins sampled answers the way the pipeline's golden files
// pin full runs: every chosen point's interval, weight and detailed-run
// figures, and the recombined estimate, for three workloads under every
// policy at DefaultConfig. A change to checkpoint capture or restore that
// moves any simulated value fails here. Regenerate deliberately with
// `go test ./internal/simpoint -run GoldenSampled -update`.
func TestGoldenSampled(t *testing.T) {
	var rows []goldenSampledRow
	for _, name := range goldenSampledWorkloads {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		prog, err := wl.Build(workload.VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(prog, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range pipeline.RegisteredModes() {
			mcfg := pipeline.DefaultConfig()
			mcfg.Mode = mode
			row := goldenSampledRow{Workload: name, Mode: mode.String()}
			stats := make([]pipeline.Stats, len(plan.Points))
			for i, pt := range plan.Points {
				if stats[i], err = plan.SimulatePoint(context.Background(), i, mcfg, prog); err != nil {
					t.Fatalf("%s/%v point %d: %v", name, mode, i, err)
				}
				row.Points = append(row.Points, goldenPoint{Index: pt.Interval.Index, Weight: pt.Weight,
					Cycles: stats[i].Cycles, Insts: stats[i].Insts})
			}
			est, err := plan.Estimate(stats)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			row.CPI, row.Bound, row.Cycles = est.CPI, est.ErrorBound, est.Cycles
			rows = append(rows, row)
		}
	}

	path := filepath.Join("testdata", "golden_sampled.json")
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", path, len(rows))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenSampledRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, matrix produces %d (regenerate with -update)", path, len(want), len(rows))
	}
	for i, w := range want {
		if got := rows[i]; !reflect.DeepEqual(got, w) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(w)
			t.Errorf("%s/%s: sampled answer diverged from %s\ngot:  %s\nwant: %s", w.Workload, w.Mode, path, gj, wj)
		}
	}
}

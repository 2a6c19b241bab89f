package pipeline_test

import (
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
	"rewrite the testdata/golden_*.json files from the current simulator")

// The golden matrix: every microarchitecture policy — the three
// paper machines plus the delayupgrade and noforward extensions — over one
// shadow-stack and one code-pointer-integrity workload. Small enough to run
// in every `go test`, diverse enough to exercise every WRPKRU interaction
// point (rename gating, ROB_pkru pressure, load/store checks, forwarding
// suppression, TLB deferral).
var (
	goldenModes = []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeNonSecure,
		pipeline.ModeSpecMPK, pipeline.ModeDelayUpgrade, pipeline.ModeNoForward}
	goldenWorkloads = []string{"548.exchange2_r", "471.omnetpp"}
)

// goldenAblations are the Config ablation knobs pinned in
// testdata/golden_ablation_stats.json over the same matrix: the default
// config's file exercises none of them, yet each reroutes a policy verdict
// (TLB-miss timing, where a suspect store's address generation happens).
var goldenAblations = []struct {
	name string
	set  func(*pipeline.Config)
}{
	{"no_tlb_deferral", func(c *pipeline.Config) { c.NoTLBDeferral = true }},
	{"memdep_stall_suspect_stores", func(c *pipeline.Config) {
		c.MemDepSpeculation = true
		c.StallSuspectStores = true
	}},
}

type goldenRow struct {
	Workload string         `json:"workload"`
	Mode     string         `json:"mode"`
	Ablation string         `json:"ablation,omitempty"`
	Stats    pipeline.Stats `json:"stats"`
}

func goldenRun(t *testing.T, name string, cfg pipeline.Config) pipeline.Stats {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatalf("%s/%v: %v", name, cfg.Mode, err)
	}
	return m.Stats
}

// TestGoldenStats locks the three paper microarchitectures cycle-for-cycle:
// every counter of every golden run must match testdata/golden_stats.json
// exactly. The file was captured from the pre-policy-refactor simulator
// (the 11-branch `Cfg.Mode` switch in stages.go), so a pass proves the
// policy table reproduces the original modes bit-identically. The same
// matrix under each of goldenAblations must match
// testdata/golden_ablation_stats.json.
// Regenerate deliberately with `go test ./internal/pipeline -run Golden -update`.
func TestGoldenStats(t *testing.T) {
	var rows, ablated []goldenRow
	for _, wl := range goldenWorkloads {
		for _, mode := range goldenModes {
			cfg := pipeline.DefaultConfig()
			cfg.Mode = mode
			rows = append(rows, goldenRow{Workload: wl, Mode: mode.String(), Stats: goldenRun(t, wl, cfg)})
			for _, ab := range goldenAblations {
				acfg := cfg
				ab.set(&acfg)
				ablated = append(ablated, goldenRow{Workload: wl, Mode: mode.String(), Ablation: ab.name,
					Stats: goldenRun(t, wl, acfg)})
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_stats.json"), rows)
	checkGolden(t, filepath.Join("testdata", "golden_ablation_stats.json"), ablated)
}

// checkGolden compares rows against the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, rows []goldenRow) {
	t.Helper()
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
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, matrix produces %d (regenerate with -update)", path, len(want), len(rows))
	}
	for i, w := range want {
		got := rows[i]
		if got.Workload != w.Workload || got.Mode != w.Mode || got.Ablation != w.Ablation {
			t.Fatalf("%s row %d: got %s/%s/%s, golden has %s/%s/%s (matrix changed; regenerate with -update)",
				path, i, got.Workload, got.Mode, got.Ablation, w.Workload, w.Mode, w.Ablation)
		}
		if !reflect.DeepEqual(got.Stats, w.Stats) {
			gj, _ := json.MarshalIndent(got.Stats, "", "  ")
			wj, _ := json.MarshalIndent(w.Stats, "", "  ")
			t.Errorf("%s/%s %s: stats diverged from %s\ngot:  %s\nwant: %s",
				w.Workload, w.Mode, w.Ablation, path, gj, wj)
		}
	}
}

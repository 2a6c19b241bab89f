package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// TestForEachCollectsAllErrors: a sweep failing on several items must report
// every failure, not just whichever error won a race.
func TestForEachCollectsAllErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	err := forEach(3, items, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item-%d-broke", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for _, want := range []string{"item-0-broke", "item-3-broke", "item-6-broke"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "item-1") {
		t.Errorf("joined error contains a non-error item: %v", err)
	}
	if err := forEach(3, items, func(int) error { return nil }); err != nil {
		t.Fatalf("all-success forEach returned %v", err)
	}
}

// TestSimSeam: a Runner with Jobs installed must route every pipeline
// simulation through it and use the returned statistics.
func TestSimSeam(t *testing.T) {
	var calls atomic.Uint64
	stub := func(_ context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
		calls.Add(1)
		st := pipeline.Stats{Cycles: 1000, Insts: 2000}
		st.CPI.Base = st.Cycles // keep the CPI-stack invariant intact
		switch spec.Mode {
		case pipeline.ModeNonSecure.String():
			st.Insts = 3000
		case pipeline.ModeSpecMPK.String():
			st.Insts = 2900
		}
		return api.Result{StopReason: string(pipeline.StopHalt), Stats: st,
			Metrics: map[string]any{"stub": true}}, api.JobInfo{}, nil
	}
	r := Runner{Workloads: []string{"557.xz_r"}, Jobs: stub}
	rows, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("stub called %d times, want 3 (ser/ns/sp)", got)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].NonSecureNorm != 1.5 || rows[0].SpecMPKNorm != 1.45 {
		t.Fatalf("stub stats did not flow through: %+v", rows[0])
	}

	// StatsRows must carry the seam's Metrics verbatim.
	calls.Store(0)
	r.Modes = []pipeline.Mode{pipeline.ModeSpecMPK}
	srows, err := StatsRows(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 1 || srows[0].Metrics["stub"] != true {
		t.Fatalf("stats rows %+v", srows)
	}
}

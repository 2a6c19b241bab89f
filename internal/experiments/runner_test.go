package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// TestForEachCollectsAllErrors: a sweep failing on several items must report
// every failure, not just whichever error won a race.
func TestForEachCollectsAllErrors(t *testing.T) {
	err := forEach(3, 8, func(i int) error {
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
	if err := forEach(3, 8, func(int) error { return nil }); err != nil {
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

// TestSweepOrdersRowsAndBoundsJobs: a sweep runs a row's jobs in order,
// never has more than Parallelism jobs in flight, stops a row at its first
// failure, and reports every failed row.
func TestSweepOrdersRowsAndBoundsJobs(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	order := map[string][]string{}
	stub := func(_ context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		order[spec.Workload] = append(order[spec.Workload], spec.Variant)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		stop := pipeline.StopHalt
		if spec.Variant == "nop" && spec.Workload != "w0" {
			stop = pipeline.StopCycleLimit // a terminal failure: run does not retry it
		}
		return api.Result{StopReason: string(stop), Key: spec.Workload + "/" + spec.Variant}, api.JobInfo{}, nil
	}
	variants := []workload.Variant{workload.VariantNone, workload.VariantNop, workload.VariantFull}
	row := func(i int) []api.JobSpec {
		var specs []api.JobSpec
		for _, v := range variants {
			specs = append(specs, api.SpecFor(fmt.Sprintf("w%d", i), v, pipeline.DefaultConfig()))
		}
		return specs
	}

	r := Runner{Parallelism: 2, Jobs: stub}
	_, err := r.sweep(4, row)
	if err == nil {
		t.Fatal("sweep with failing rows succeeded")
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if !strings.Contains(err.Error(), w+"/nop/") {
			t.Errorf("joined error misses row %s: %v", w, err)
		}
		if got := order[w]; strings.Join(got, ",") != "none,nop" {
			t.Errorf("row %s ran %v, want none,nop and a stop at the failure", w, got)
		}
	}
	if got := strings.Join(order["w0"], ","); got != "none,nop,full" {
		t.Errorf("row w0 ran %s, want its jobs in order", got)
	}
	if peak > 2 {
		t.Errorf("%d jobs in flight, Parallelism is 2", peak)
	}

	out, err := r.sweep(1, row)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 3 || out[0][2].Key != "w0/full" {
		t.Fatalf("sweep results %+v", out)
	}
}

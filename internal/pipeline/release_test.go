package pipeline_test

import (
	"reflect"
	"runtime/debug"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// TestReleasedStorageIsFresh: a machine built on storage another machine
// released is indistinguishable from one built on fresh storage, under every
// policy — equal under reflect.DeepEqual when built, and equal in every
// statistic after 50k cycles. The released machine itself panics when
// stepped rather than running on arrays another machine now owns. The
// collector is off from the release to the rebuild, so it cannot empty the
// pools in between and hand the "recycled" machine fresh storage.
func TestReleasedStorageIsFresh(t *testing.T) {
	prog, err := benchProgram(t, "505.mcf_r").Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range pipeline.RegisteredModes() {
		cfg := pipeline.DefaultConfig()
		cfg.Mode = mode
		old, err := pipeline.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000; i++ {
			old.Step()
		}
		gc := debug.SetGCPercent(-1)
		old.Release()
		recycled, err := pipeline.New(cfg, prog)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := pipeline.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			t.Fatalf("%v: a machine on released storage differs from a fresh one", mode)
		}
		for i := 0; i < 50_000; i++ {
			recycled.Step()
			fresh.Step()
		}
		if recycled.Stats != fresh.Stats {
			t.Fatalf("%v: stats diverged after 50k cycles:\nrecycled %+v\nfresh    %+v", mode, recycled.Stats, fresh.Stats)
		}
		if !panics(old.Step) {
			t.Fatalf("%v: a released machine stepped without panicking", mode)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

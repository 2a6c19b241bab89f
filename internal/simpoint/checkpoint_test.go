package simpoint

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/mem"
	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// cataloguePlan is one catalogue program and its plan at DefaultConfig.
type cataloguePlan struct {
	name string
	prog *asm.Program
	plan *Plan
}

// cataloguePlans builds every catalogue program's DefaultConfig plan once per
// test binary.
var cataloguePlans = sync.OnceValues(func() ([]cataloguePlan, error) {
	var out []cataloguePlan
	for _, w := range workload.Catalog() {
		prog, err := w.Build(workload.VariantFull)
		if err != nil {
			return nil, err
		}
		plan, err := BuildPlan(prog, DefaultConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, cataloguePlan{w.Name, prog, plan})
	}
	return out, nil
})

func TestChooseDeterministicForSeed(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	intervals, err := Profile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := Choose(intervals, cfg)
	b := Choose(intervals, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds chose different clusters:\n%+v\n%+v", a, b)
	}
	// A different seed must still be internally deterministic.
	cfg2 := cfg
	cfg2.Seed = 99
	c := Choose(intervals, cfg2)
	d := Choose(intervals, cfg2)
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("seed 99 is not deterministic:\n%+v\n%+v", c, d)
	}
}

// TestCheckpointMemoryDeltaExact: a pristine load patched with a
// checkpoint's touched-page delta reproduces the exact architectural state
// (registers + every program region) of a machine that actually executed to
// the boundary — for one leela checkpoint, and at every point of the mcf,
// omnetpp and gcc plans.
func TestCheckpointMemoryDeltaExact(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	const idx = 7
	cps, err := CaptureCheckpoints(prog, cfg, []uint64{idx})
	if err != nil {
		t.Fatal(err)
	}
	if cps[0].Insts != idx*cfg.IntervalLen {
		t.Fatalf("checkpoint at %d insts, want %d", cps[0].Insts, idx*cfg.IntervalLen)
	}
	checkDeltaExact(t, "541.leela_r", prog, cps[0])

	plans, err := cataloguePlans()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range plans {
		for _, name := range goldenSampledWorkloads {
			if cp.name == name {
				for _, ck := range cp.plan.Checkpoints {
					checkDeltaExact(t, name, cp.prog, ck)
				}
			}
		}
	}
}

// checkDeltaExact compares a pristine load patched with cp's page delta,
// under cp's registers, against an independent functional run to cp's
// boundary.
func checkDeltaExact(t *testing.T, name string, prog *asm.Program, cp *Checkpoint) {
	t.Helper()
	live, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Run(cp.Insts, 1); err != nil && err != funcsim.ErrLimit {
		t.Fatal(err)
	}
	want, err := live.Digest()
	if err != nil {
		t.Fatal(err)
	}
	as, err := prog.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.patchPages(as); err != nil {
		t.Fatal(err)
	}
	got, err := funcsim.DigestState(cp.Regs, as, prog.Regions)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s interval %d: restored state digest %#x, live digest %#x", name, cp.Index, got, want)
	}
	if cp.PC != live.Threads[0].PC {
		t.Fatalf("%s interval %d: restored PC %#x, live PC %#x", name, cp.Index, cp.PC, live.Threads[0].PC)
	}
}

// TestRestoreMatchesReferenceReplay: at every point of every catalogue
// program's DefaultConfig plan, NewMachine (page-table memo, pages rebuilt
// in one buffer) builds exactly the machine a reference restore builds —
// each decoded page written whole onto a pristine load, and the decoded
// log replayed with one page-table walk per record — down to every cache
// line, TLB entry, predictor entry, RAS slot and memory frame.
func TestRestoreMatchesReferenceReplay(t *testing.T) {
	plans, err := cataloguePlans()
	if err != nil {
		t.Fatal(err)
	}
	mcfg := pipeline.DefaultConfig()
	for _, cp := range plans {
		for _, ck := range cp.plan.Checkpoints {
			got, err := ck.NewMachine(mcfg, cp.prog)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceRestore(t, ck, mcfg, cp.prog)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s interval %d: restored machine differs from the reference replay", cp.name, ck.Index)
			}
			got.Release()
			want.Release()
		}
	}
}

// referenceRestore is NewMachine the plain way: every decoded page written
// whole onto a fresh load, then every decoded record replayed with its own
// AddressSpace.Translate.
func referenceRestore(t *testing.T, cp *Checkpoint, mcfg pipeline.Config, prog *asm.Program) *pipeline.Machine {
	t.Helper()
	as, err := prog.Load()
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for _, p := range cp.pages {
		page := make([]byte, mem.PageSize)
		if err := decodePage(page, cp.pageData[start:p.end]); err != nil {
			t.Fatal(err)
		}
		start = p.end
		pte, ok := as.Lookup(p.vpn << mem.PageBits)
		if !ok {
			t.Fatalf("page %#x not mapped", p.vpn)
		}
		as.Phys.WriteBytes(pte.PPN<<mem.PageBits, page)
	}
	regs := cp.Regs
	m, err := pipeline.NewWithState(mcfg, prog, as, &regs, cp.PKRU, cp.PC)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmRAS(cp.RAS)
	tage, btb := m.Predictors()
	d := warmDecoder{buf: cp.warm}
	for rec, ok := d.next(); ok; rec, ok = d.next() {
		if ipaddr, ipte, err := as.Translate(rec.pc, mem.Exec); err == nil {
			if _, hit := m.ITLB.Lookup(rec.pc >> mem.PageBits); !hit {
				m.ITLB.Fill(rec.pc>>mem.PageBits, ipte)
			}
			m.Hier.FetchLatency(ipaddr)
		}
		switch rec.kind {
		case warmBranch:
			_, st := tage.Predict(rec.pc)
			tage.SpeculativeUpdate(rec.taken)
			tage.Update(rec.pc, st, rec.taken)
		case warmIndirect:
			btb.Update(rec.pc, rec.addr)
		case warmLoad, warmStore:
			acc := mem.Read
			if rec.kind == warmStore {
				acc = mem.Write
			}
			if paddr, pte, err := as.Translate(rec.addr, acc); err == nil {
				if _, hit := m.DTLB.Lookup(rec.addr >> mem.PageBits); !hit {
					m.DTLB.Fill(rec.addr>>mem.PageBits, pte)
				}
				m.Hier.L1D.Access(paddr, rec.kind == warmStore)
			}
		}
	}
	return m
}

// TestCataloguePlansAreCompact bounds what a plan holds: every catalogue
// program's DefaultConfig plan stays under 0.3 MB of checkpoint storage.
func TestCataloguePlansAreCompact(t *testing.T) {
	plans, err := cataloguePlans()
	if err != nil {
		t.Fatal(err)
	}
	const maxPlanBytes = 300_000
	var total int
	for _, cp := range plans {
		n := 0
		for _, ck := range cp.plan.Checkpoints {
			pageB, warmB := ck.EncodedBytes()
			n += pageB + warmB + 16*ck.DirtyPages() + 8*len(ck.RAS) + int(reflect.TypeOf(*ck).Size())
		}
		total += n
		if n > maxPlanBytes {
			t.Errorf("%s: plan holds %d bytes of checkpoints, want at most %d", cp.name, n, maxPlanBytes)
		}
	}
	t.Logf("%d plans hold %d bytes of checkpoints, %.0f per plan", len(plans), total, float64(total)/float64(len(plans)))
}

// TestSimulatePointAllocBound: once a plan's first interval has run, the
// next one builds its machine on the storage the first released, so it
// allocates well under the megabyte a fresh machine costs. The collector is
// off across both calls, so it cannot reclaim the released storage in
// between.
func TestSimulatePointAllocBound(t *testing.T) {
	w, _ := workload.ByName("505.mcf_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := pipeline.DefaultConfig()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	const bound = 1 << 20
	if got := ms.TotalAlloc - before; got >= bound {
		t.Fatalf("a repeated SimulatePoint allocates %d bytes, want under %d", got, bound)
	} else {
		t.Logf("a repeated SimulatePoint allocates %d bytes", got)
	}
}

func TestCaptureCheckpointsAlignedAndDeduped(t *testing.T) {
	w, _ := workload.ByName("548.exchange2_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	// Out of order with a duplicate: one pass, aligned output, shared capture.
	idxs := []uint64{9, 2, 9, 5}
	cps, err := CaptureCheckpoints(prog, cfg, idxs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != len(idxs) {
		t.Fatalf("%d checkpoints for %d indices", len(cps), len(idxs))
	}
	for i, cp := range cps {
		if cp.Index != idxs[i] {
			t.Fatalf("checkpoint %d has index %d, want %d", i, cp.Index, idxs[i])
		}
	}
	if cps[0] != cps[2] {
		t.Fatal("duplicate indices did not share one capture")
	}
	// Warm-up history must deepen with execution (later checkpoint saw more).
	if cps[1].WarmRecords() == 0 {
		t.Fatal("checkpoint 2 has no warm-up log")
	}
}

func TestCaptureCheckpointBeyondEndFails(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	_, err = CaptureCheckpoints(prog, cfg, []uint64{1 << 40})
	if err == nil || !strings.Contains(err.Error(), "beyond program end") {
		t.Fatalf("err = %v, want beyond-program-end", err)
	}
}

// TestSimulatePointDeterministic: restoring the same checkpoint twice into
// fresh machines yields identical detailed statistics — the property that
// makes sampled results byte-reproducible.
func TestSimulatePointDeterministic(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := pipeline.DefaultConfig()
	a, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.SimulatePoint(context.Background(), 0, mcfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same point, different stats:\n%+v\n%+v", a, b)
	}
	if a.Insts < testConfig().IntervalLen {
		t.Fatalf("point retired %d insts, want >= %d", a.Insts, testConfig().IntervalLen)
	}
}

// TestSimulatePointCancelled: an interval run under a cancelled context
// stops at its first context poll, with the context's error and a
// cancelled stop reason.
func TestSimulatePointCancelled(t *testing.T) {
	w, _ := workload.ByName("541.leela_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := plan.SimulatePoint(ctx, 0, pipeline.DefaultConfig(), prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulatePoint = %v, want context.Canceled", err)
	}
	if st.Stop != pipeline.StopCancelled {
		t.Fatalf("stop reason %q, want %q", st.Stop, pipeline.StopCancelled)
	}
	// The run polls its context every 1,024 cycles.
	if st.Cycles > 1024 {
		t.Fatalf("cancelled interval ran %d cycles, want at most one poll interval", st.Cycles)
	}
}

func TestBuildPlanPointOrderCanonical(t *testing.T) {
	w, _ := workload.ByName("548.exchange2_r")
	prog, err := w.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(prog, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Points, p2.Points) {
		t.Fatal("two builds of the same plan chose different point orders")
	}
	for i := 1; i < len(p1.Points); i++ {
		prev, cur := p1.Points[i-1], p1.Points[i]
		if cur.Weight > prev.Weight {
			t.Fatalf("points not weight-sorted at %d", i)
		}
		if cur.Weight == prev.Weight && cur.Interval.Index < prev.Interval.Index {
			t.Fatalf("weight tie at %d not broken by interval index", i)
		}
	}
}

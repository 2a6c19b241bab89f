package workload

import (
	"fmt"
	"sync"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/pipeline"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 16 {
		t.Fatalf("catalogue too small: %d", len(cat))
	}
	ss, cpi := 0, 0
	seen := map[string]bool{}
	for _, p := range cat {
		if seen[p.Name] {
			t.Fatalf("duplicate name %s", p.Name)
		}
		seen[p.Name] = true
		switch p.Scheme {
		case SchemeSS:
			ss++
			if p.Suite != "SPEC2017" {
				t.Fatalf("%s: SS entries come from SPEC2017", p.Name)
			}
		case SchemeCPI:
			cpi++
			if p.Suite != "SPEC2006" {
				t.Fatalf("%s: CPI entries come from SPEC2006", p.Name)
			}
			if p.IndirectCalls <= 0 || p.IndirectCalls > p.CallDepth {
				t.Fatalf("%s: bad IndirectCalls %d", p.Name, p.IndirectCalls)
			}
		}
	}
	if ss < 8 || cpi < 5 {
		t.Fatalf("suite mix ss=%d cpi=%d", ss, cpi)
	}
	if _, ok := ByName("520.omnetpp_r"); !ok {
		t.Fatal("ByName must find 520.omnetpp_r")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName must reject unknown names")
	}
	if len(Names()) != len(cat) {
		t.Fatal("Names mismatch")
	}
}

// TestByNameAllocatesNothing: every job submission's Normalize looks its
// workload up, so a lookup (hit in either table, or a miss) must not copy
// the catalogues. A caller's Catalog copy must not alias the table either.
func TestByNameAllocatesNothing(t *testing.T) {
	for _, name := range []string{"505.mcf_r", "471.omnetpp", "ffi-light", "nonexistent"} {
		if n := testing.AllocsPerRun(100, func() { ByName(name) }); n != 0 {
			t.Errorf("ByName(%q) allocates %v times per call", name, n)
		}
	}
	if p, ok := ByName("ffi-light"); !ok || p.Scheme != SchemeHeap {
		t.Fatalf("ByName(ffi-light) = %+v, %v; want the extension workload", p, ok)
	}
	cat := Catalog()
	cat[0].Name = "mutated"
	if Catalog()[0].Name == "mutated" {
		t.Fatal("Catalog returned the package table, not a copy")
	}
}

func runFunc(t *testing.T, p Profile, v Variant) *funcsim.Machine {
	t.Helper()
	prog, err := p.Build(v)
	if err != nil {
		t.Fatalf("%s/%v: %v", p.Name, v, err)
	}
	m, err := funcsim.New(prog)
	if err != nil {
		t.Fatalf("%s/%v: %v", p.Name, v, err)
	}
	if err := m.Run(5_000_000, 1); err != nil {
		t.Fatalf("%s/%v: %v", p.Name, v, err)
	}
	return m
}

func TestAllWorkloadsRunCleanly(t *testing.T) {
	for _, p := range Catalog() {
		m := runFunc(t, p, VariantFull)
		if m.Stats.Insts < 10_000 {
			t.Errorf("%s: only %d instructions", p.Name, m.Stats.Insts)
		}
		if m.Stats.Insts > 2_000_000 {
			t.Errorf("%s: too long (%d instructions)", p.Name, m.Stats.Insts)
		}
		if m.Stats.Wrpkru == 0 {
			t.Errorf("%s: no WRPKRU executed", p.Name)
		}
		// The shadow-stack integrity check must never fire.
		if v, _ := m.AS.ReadVirt64(HeapBase); v == 0xdead {
			t.Errorf("%s: ssfail sentinel written", p.Name)
		}
		if p.Scheme == SchemeSS && m.Stats.Calls == 0 {
			t.Errorf("%s: no calls", p.Name)
		}
	}
}

func TestWrpkruDensityNearTarget(t *testing.T) {
	for _, p := range Catalog() {
		m := runFunc(t, p, VariantFull)
		got := m.Stats.WrpkruPerKilo()
		lo, hi := p.TargetWrpkruPerKilo*0.5, p.TargetWrpkruPerKilo*2.0
		if got < lo || got > hi {
			t.Errorf("%s: WRPKRU/kinst = %.2f, target %.2f", p.Name, got, p.TargetWrpkruPerKilo)
		}
	}
}

func TestDensityOrderingPreserved(t *testing.T) {
	// The Fig. 10 shape: omnetpp SS is the densest SS workload; xz and mcf
	// are the sparsest.
	density := map[string]float64{}
	for _, p := range Catalog() {
		m := runFunc(t, p, VariantFull)
		density[p.Name] = m.Stats.WrpkruPerKilo()
	}
	if !(density["520.omnetpp_r"] > density["502.gcc_r"] &&
		density["502.gcc_r"] > density["525.x264_r"] &&
		density["525.x264_r"] > density["557.xz_r"]) {
		t.Fatalf("SS density ordering broken: %v", density)
	}
	if !(density["471.omnetpp"] > density["403.gcc"] &&
		density["403.gcc"] > density["464.h264ref"]) {
		t.Fatalf("CPI density ordering broken: %v", density)
	}
}

func TestVariantsDifferOnlyInInstrumentation(t *testing.T) {
	p, _ := ByName("531.deepsjeng_r")
	full := runFunc(t, p, VariantFull)
	nop := runFunc(t, p, VariantNop)
	none := runFunc(t, p, VariantNone)

	if nop.Stats.Wrpkru != 0 || none.Stats.Wrpkru != 0 {
		t.Fatal("nop/none variants must execute zero WRPKRU")
	}
	if full.Stats.Wrpkru == 0 {
		t.Fatal("full variant must execute WRPKRU")
	}
	// Nop variant has the same instruction count as full (1:1 substitution).
	if nop.Stats.Insts != full.Stats.Insts {
		t.Fatalf("nop insts %d != full insts %d", nop.Stats.Insts, full.Stats.Insts)
	}
	// None variant strips the instrumentation entirely.
	if none.Stats.Insts >= nop.Stats.Insts {
		t.Fatalf("none insts %d should be below nop insts %d", none.Stats.Insts, nop.Stats.Insts)
	}
}

func TestCPIVariantsCallIndirect(t *testing.T) {
	p, _ := ByName("471.omnetpp")
	prog, err := p.Build(VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	indirect := 0
	for _, in := range prog.Insts {
		if in.Op == isa.OpJalr && in.Rd == isa.RegRA {
			indirect++
		}
	}
	if indirect == 0 {
		t.Fatal("CPI workload must contain indirect calls")
	}
}

func TestVariantString(t *testing.T) {
	if VariantFull.String() != "full" || VariantNop.String() != "nop" || VariantNone.String() != "none" {
		t.Fatal("variant names")
	}
	if SchemeSS.String() != "SS" || SchemeCPI.String() != "CPI" {
		t.Fatal("scheme names")
	}
}

func TestBuildDeterministic(t *testing.T) {
	p, _ := ByName("500.perlbench_r")
	a, err := p.Build(VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build(VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("nondeterministic build")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
}

// TestPipelineEquivalenceSample runs a subset of workloads through every
// registered microarchitecture policy and checks architectural equivalence
// with the functional reference. (The full sweep happens in the benches.)
func TestPipelineEquivalenceSample(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, name := range []string{"520.omnetpp_r", "557.xz_r", "453.povray"} {
		p, _ := ByName(name)
		prog, err := p.Build(VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := funcsim.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(5_000_000, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := ref.Digest()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range pipeline.RegisteredModes() {
			cfg := pipeline.DefaultConfig()
			cfg.Mode = mode
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(50_000_000); err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			got, err := funcsim.DigestState(m.ArchRegs(), m.AS, prog.Regions)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s/%v: architectural divergence", name, mode)
			}
		}
	}
}

// TestWrpkruDiscipline verifies every generated program satisfies the
// paper's §IX-B compiler assumption: each WRPKRU's value comes from an
// adjacent load-immediate with no intervening control flow.
func TestWrpkruDiscipline(t *testing.T) {
	for _, p := range Catalog() {
		prog, err := p.Build(VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		if v := asm.CheckWrpkruDiscipline(prog); len(v) != 0 {
			t.Errorf("%s: %d violations, first: %v", p.Name, len(v), v[0])
		}
	}
}

// TestExtCatalogHeapScheme covers the PKRU-Safe extension workloads: they
// run fault-free, hit their WRPKRU densities, satisfy the compiler
// discipline, and actually touch the protected unsafe heap.
func TestExtCatalogHeapScheme(t *testing.T) {
	for _, p := range ExtCatalog() {
		if p.Scheme != SchemeHeap || p.Suite != "PKRU-Safe" {
			t.Fatalf("%s: unexpected metadata %v/%s", p.Name, p.Scheme, p.Suite)
		}
		if p.Scheme.String() != "HEAP" {
			t.Fatal("scheme name")
		}
		m := runFunc(t, p, VariantFull)
		got := m.Stats.WrpkruPerKilo()
		if got < p.TargetWrpkruPerKilo*0.5 || got > p.TargetWrpkruPerKilo*2 {
			t.Errorf("%s: density %.2f, target %.2f", p.Name, got, p.TargetWrpkruPerKilo)
		}
		// The unsafe heap must have been written inside library calls.
		bts, err := m.AS.ReadVirtBytes(UnsafeHeapBase, 4*4096)
		if err != nil {
			t.Fatal(err)
		}
		nonzero := false
		for _, b := range bts {
			if b != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Errorf("%s: unsafe heap untouched", p.Name)
		}
		prog, _ := p.Build(VariantFull)
		if v := asm.CheckWrpkruDiscipline(prog); len(v) != 0 {
			t.Errorf("%s: discipline violations: %v", p.Name, v[0])
		}
		// ByName finds extension entries too.
		if _, ok := ByName(p.Name); !ok {
			t.Errorf("%s: ByName missed it", p.Name)
		}
	}
}

// TestBuildSeededReplications: different seeds give different programs with
// the same statistical profile.
func TestBuildSeededReplications(t *testing.T) {
	p, _ := ByName("531.deepsjeng_r")
	var densities []float64
	var sizes []int
	for seed := int64(0); seed < 3; seed++ {
		prog, err := p.BuildSeeded(VariantFull, seed)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(prog.Insts))
		m, err := funcsim.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(5_000_000, 1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		densities = append(densities, m.Stats.WrpkruPerKilo())
	}
	if sizes[0] == sizes[1] && sizes[1] == sizes[2] {
		// Block shapes are random; identical sizes across all three seeds
		// would mean the seed is ignored.
		t.Fatalf("replications suspiciously identical: %v", sizes)
	}
	for _, d := range densities {
		if d < p.TargetWrpkruPerKilo*0.5 || d > p.TargetWrpkruPerKilo*2 {
			t.Fatalf("replication density %v off target %v", densities, p.TargetWrpkruPerKilo)
		}
	}
}

// TestPipelineEquivalenceFullCatalog is the heavyweight oracle — and the
// policy table's differential test: every catalogue workload (paper set +
// extensions) must produce bit-identical architectural state across the
// functional reference and every microarchitecture policy.
func TestPipelineEquivalenceFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	all := append(Catalog(), ExtCatalog()...)
	type job struct {
		p Profile
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	errs := make(chan error, len(all))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := checkEquivalence(j.p); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, p := range all {
		jobs <- job{p}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func checkEquivalence(p Profile) error {
	prog, err := p.Build(VariantFull)
	if err != nil {
		return err
	}
	ref, err := funcsim.New(prog)
	if err != nil {
		return err
	}
	if err := ref.Run(10_000_000, 1); err != nil {
		return fmt.Errorf("%s: reference: %v", p.Name, err)
	}
	want, err := ref.Digest()
	if err != nil {
		return err
	}
	for _, mode := range pipeline.RegisteredModes() {
		cfg := pipeline.DefaultConfig()
		cfg.Mode = mode
		m, err := pipeline.New(cfg, prog)
		if err != nil {
			return err
		}
		if err := m.Run(500_000_000); err != nil {
			return fmt.Errorf("%s/%v: %v", p.Name, mode, err)
		}
		got, err := funcsim.DigestState(m.ArchRegs(), m.AS, prog.Regions)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s/%v: architectural divergence", p.Name, mode)
		}
	}
	return nil
}

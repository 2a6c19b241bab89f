// Package workload synthesises the SPEC-like benchmark programs the
// evaluation runs, together with the two software protection schemes the
// paper studies (§VI-B):
//
//   - Shadow Stack (SS): every function prologue temporarily write-enables
//     the shadow-stack pKey, pushes the return address, and re-protects;
//     the epilogue pops and compares against the regular-stack copy.
//   - Code Pointer Integrity (CPI, the code-pointer-separation variant):
//     code pointers live in an access-disabled safe region; every read is
//     sandwiched by an enabling and a disabling WRPKRU.
//
// We do not have SPEC2017/SPEC2006 sources or the authors' instrumenting
// compilers, so each catalogue entry is a parameterised synthetic program
// whose *dynamic characteristics* are shaped to the named benchmark's role
// in the paper: WRPKRU density (the Fig. 10 distribution, which §VII says
// drives the speedups), call depth, function size, branch predictability
// and memory footprint. See DESIGN.md for why this substitution preserves
// the evaluation's shape.
package workload

import (
	"fmt"
	"math/rand"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
)

// Scheme is the protection scheme a workload is compiled with.
type Scheme int

// The two studied schemes, plus the PKRU-Safe-style heap-isolation scheme
// (an extension; the paper cites PKRU-Safe's 11.55 % slowdown in §III-B but
// does not evaluate it).
const (
	SchemeSS Scheme = iota
	SchemeCPI
	SchemeHeap
)

func (s Scheme) String() string {
	switch s {
	case SchemeCPI:
		return "CPI"
	case SchemeHeap:
		return "HEAP"
	}
	return "SS"
}

// Variant selects the instrumentation level (the Fig. 4 methodology).
type Variant int

// Instrumentation variants.
const (
	// VariantFull is the complete protection scheme with load-immediate
	// PKRU values (the §IX-B compiler discipline).
	VariantFull Variant = iota
	// VariantNop keeps the compiler transformation but replaces every
	// WRPKRU with a NOP — isolating transformation overhead from
	// serialization overhead (Fig. 4).
	VariantNop
	// VariantNone is the uninstrumented baseline program.
	VariantNone
	// VariantRdpkru is the full protection scheme but with glibc
	// pkey_set-style read-modify-write permission updates
	// (RDPKRU → mask → WRPKRU). §V-C6 serializes RDPKRU, so this variant
	// quantifies the cost the paper's compiler advice ("use a data
	// structure to store permissions") avoids.
	VariantRdpkru
)

// ParseVariant maps a variant name (as printed by Variant.String) back to
// the Variant — the inverse the CLIs and the job-server API share.
func ParseVariant(name string) (Variant, error) {
	switch name {
	case "full":
		return VariantFull, nil
	case "nop":
		return VariantNop, nil
	case "none":
		return VariantNone, nil
	case "rdpkru":
		return VariantRdpkru, nil
	}
	return 0, fmt.Errorf("workload: unknown variant %q (want full|nop|none|rdpkru)", name)
}

func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "full"
	case VariantNop:
		return "nop"
	case VariantRdpkru:
		return "rdpkru"
	}
	return "none"
}

// Memory layout shared by all generated programs.
const (
	CodeBase   = 0x00010000
	HeapBase   = 0x20000000
	ShadowBase = 0x60000000
	ShadowSize = 16 * mem.PageSize
	SafeBase   = 0x61000000
	SafeSize   = 4 * mem.PageSize
	StackTop   = 0x7fff0000
	StackSize  = 64 * mem.PageSize

	// ShadowKey protects the shadow stack (write-disabled in steady state).
	ShadowKey = 1
	// SafeKey protects the CPI safe region (access-disabled in steady state).
	SafeKey = 2
	// UnsafeHeapKey protects the unsafe-library heap (PKRU-Safe scheme,
	// access-disabled outside library code).
	UnsafeHeapKey = 3
	// UnsafeHeapBase is the unsafe-library heap region.
	UnsafeHeapBase = 0x62000000
)

// Register conventions inside generated code.
const (
	regHeap    = isa.RegGP // heap base
	regSSP     = isa.RegSSP
	regData0   = 9  // r9..r18: data registers
	regScratch = 19 // r19..r25: scratch
	regOpen    = 26 // PKRU with everything enabled
	regProtSS  = 27 // PKRU protecting the shadow stack (WD key 1) + safe key AD
	regCount   = 28 // loop counters r28..r30
)

// Profile describes one catalogue entry.
type Profile struct {
	// Name is the SPEC-style benchmark name, e.g. "520.omnetpp_r".
	Name string
	// Suite is "SPEC2017" (SS study) or "SPEC2006" (CPI study).
	Suite string
	// Scheme is the protection scheme the paper compiles this suite with.
	Scheme Scheme

	// TargetWrpkruPerKilo is the Fig. 10-style dynamic WRPKRU density the
	// generator aims for (with VariantFull).
	TargetWrpkruPerKilo float64

	// CallDepth is the call-chain depth per outer iteration.
	CallDepth int
	// BodyInsts is the approximate function body size in instructions.
	BodyInsts int
	// IndirectCalls is the number of CPI-protected indirect call sites
	// exercised per iteration (CPI scheme only).
	IndirectCalls int
	// BranchMask biases data-dependent branches: taken when
	// (data & BranchMask) != 0. Smaller masks are harder to predict.
	BranchMask int
	// FootprintPages is the heap working set.
	FootprintPages int
	// MemEvery emits a heap access every MemEvery filler instructions.
	MemEvery int
	// Iterations is the outer loop trip count.
	Iterations int
}

// Catalog returns the full workload list: the SPEC2017 subset compiled with
// shadow-stack protection and the SPEC2006 subset compiled with CPI, named
// as in Figs. 3/9/10/11.
func Catalog() []Profile {
	return []Profile{
		// --- SPEC2017 + shadow stack ---
		{Name: "500.perlbench_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 12, CallDepth: 4, BodyInsts: 28, BranchMask: 7, FootprintPages: 64, MemEvery: 6, Iterations: 260},
		{Name: "502.gcc_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 10, CallDepth: 4, BodyInsts: 34, BranchMask: 7, FootprintPages: 96, MemEvery: 6, Iterations: 240},
		{Name: "505.mcf_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 0.3, CallDepth: 1, BodyInsts: 60, BranchMask: 3, FootprintPages: 512, MemEvery: 3, Iterations: 120},
		{Name: "520.omnetpp_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 22, CallDepth: 6, BodyInsts: 20, BranchMask: 7, FootprintPages: 128, MemEvery: 7, Iterations: 300},
		{Name: "523.xalancbmk_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 6, CallDepth: 3, BodyInsts: 40, BranchMask: 15, FootprintPages: 96, MemEvery: 6, Iterations: 170},
		{Name: "525.x264_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 2, CallDepth: 2, BodyInsts: 70, BranchMask: 31, FootprintPages: 64, MemEvery: 5, Iterations: 110},
		{Name: "526.blender_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 5, CallDepth: 3, BodyInsts: 44, BranchMask: 15, FootprintPages: 80, MemEvery: 6, Iterations: 160},
		{Name: "531.deepsjeng_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 9, CallDepth: 5, BodyInsts: 30, BranchMask: 3, FootprintPages: 48, MemEvery: 8, Iterations: 220},
		{Name: "541.leela_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 8, CallDepth: 4, BodyInsts: 32, BranchMask: 3, FootprintPages: 48, MemEvery: 8, Iterations: 210},
		{Name: "548.exchange2_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 1.5, CallDepth: 2, BodyInsts: 90, BranchMask: 31, FootprintPages: 16, MemEvery: 10, Iterations: 90},
		{Name: "557.xz_r", Suite: "SPEC2017", Scheme: SchemeSS, TargetWrpkruPerKilo: 0.5, CallDepth: 1, BodyInsts: 110, BranchMask: 15, FootprintPages: 256, MemEvery: 4, Iterations: 45},
		// --- SPEC2006 + code pointer integrity ---
		{Name: "400.perlbench", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 6, CallDepth: 3, BodyInsts: 30, IndirectCalls: 2, BranchMask: 7, FootprintPages: 64, MemEvery: 6, Iterations: 200},
		{Name: "403.gcc", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 5, CallDepth: 3, BodyInsts: 36, IndirectCalls: 2, BranchMask: 7, FootprintPages: 96, MemEvery: 6, Iterations: 180},
		{Name: "445.gobmk", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 3, CallDepth: 3, BodyInsts: 46, IndirectCalls: 1, BranchMask: 3, FootprintPages: 48, MemEvery: 8, Iterations: 150},
		{Name: "453.povray", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 12, CallDepth: 4, BodyInsts: 22, IndirectCalls: 3, BranchMask: 15, FootprintPages: 48, MemEvery: 7, Iterations: 240},
		{Name: "458.sjeng", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 2, CallDepth: 3, BodyInsts: 60, IndirectCalls: 1, BranchMask: 3, FootprintPages: 48, MemEvery: 8, Iterations: 120},
		{Name: "464.h264ref", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 1, CallDepth: 2, BodyInsts: 90, IndirectCalls: 1, BranchMask: 31, FootprintPages: 64, MemEvery: 5, Iterations: 90},
		{Name: "471.omnetpp", Suite: "SPEC2006", Scheme: SchemeCPI, TargetWrpkruPerKilo: 15, CallDepth: 5, BodyInsts: 18, IndirectCalls: 4, BranchMask: 7, FootprintPages: 96, MemEvery: 7, Iterations: 260},
	}
}

// ExtCatalog returns the extension workloads: PKRU-Safe-style programs
// where a memory-unsafe library's heap is access-disabled except inside
// library calls (the paper's §III-B third use case, not in its evaluation).
// They are kept out of Catalog so the paper's figures stay on the paper's
// workload set; the "pkrusafe" experiment runs these.
func ExtCatalog() []Profile {
	return []Profile{
		{Name: "servo-like", Suite: "PKRU-Safe", Scheme: SchemeHeap, TargetWrpkruPerKilo: 10, CallDepth: 4, BodyInsts: 30, BranchMask: 7, FootprintPages: 96, MemEvery: 6, Iterations: 220},
		{Name: "ffi-light", Suite: "PKRU-Safe", Scheme: SchemeHeap, TargetWrpkruPerKilo: 3, CallDepth: 3, BodyInsts: 50, BranchMask: 15, FootprintPages: 64, MemEvery: 6, Iterations: 150},
	}
}

// ByName finds a catalogue entry (extension workloads included).
func ByName(name string) (Profile, bool) {
	for _, p := range append(Catalog(), ExtCatalog()...) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the catalogue names in order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, p := range cat {
		out[i] = p.Name
	}
	return out
}

// pkruOpen enables every key.
var pkruOpen = mpk.AllowAll

// pkruProtected is the steady-state PKRU for protected programs: the shadow
// stack is write-disabled, the CPI safe region and the unsafe-library heap
// access-disabled.
var pkruProtected = mpk.AllowAll.
	WithKey(ShadowKey, mpk.Perm{WD: true}).
	WithKey(SafeKey, mpk.Perm{AD: true}).
	WithKey(UnsafeHeapKey, mpk.Perm{AD: true})

// gen carries generator state.
type gen struct {
	p   Profile
	v   Variant
	r   *rand.Rand
	b   *asm.Builder
	lbl int
}

func (g *gen) label() string {
	g.lbl++
	return fmt.Sprintf("L%d", g.lbl)
}

// Build synthesises the program for the profile at the given
// instrumentation level. The generator is deterministic per profile name.
func (p Profile) Build(v Variant) (*asm.Program, error) {
	return p.BuildSeeded(v, 0)
}

// BuildSeeded is Build with an extra seed component: each seed yields a
// structurally different program drawn from the same statistical profile —
// replications for variance estimates across the synthetic workload space.
func (p Profile) BuildSeeded(v Variant, extra int64) (*asm.Program, error) {
	seed := extra * 1_000_003
	for _, c := range p.Name {
		seed = seed*131 + int64(c)
	}
	g := &gen{p: p, v: v, r: rand.New(rand.NewSource(seed)), b: asm.NewBuilder(CodeBase)}
	b := g.b

	heapBytes := uint64(p.FootprintPages) * mem.PageSize
	b.Region("heap", HeapBase, heapBytes, mem.ProtRW, 0)
	b.Region("shadow", ShadowBase, ShadowSize, mem.ProtRW, ShadowKey)
	b.Region("safe", SafeBase, SafeSize, mem.ProtRW, SafeKey)
	if p.Scheme == SchemeHeap {
		// The memory-unsafe library's heap, access-disabled outside
		// library code (PKRU-Safe).
		b.Region("unsafeheap", UnsafeHeapBase, heapBytes, mem.ProtRW, UnsafeHeapKey)
	}
	b.Region("stack", StackTop-StackSize, StackSize, mem.ProtRW, 0)
	b.InitReg(isa.RegSP, StackTop-64)
	b.InitReg(regSSP, ShadowBase)
	b.InitReg(regHeap, HeapBase)

	// CPI: function-pointer table in the safe region.
	if p.Scheme == SchemeCPI {
		for i := 0; i < p.CallDepth; i++ {
			b.DataSymbol(SafeBase+uint64(i)*8, fnName(i+1))
		}
	}

	main := b.Func("main")
	main.Movi(regOpen, int64(pkruOpen))
	main.Movi(regProtSS, int64(pkruProtected))
	for i := 0; i < 10; i++ {
		main.Movi(uint8(regData0+i), int64(g.r.Intn(1<<20)|1))
	}
	g.emitWrpkru(main, regProtSS) // enter protected steady state
	main.Movi(regCount, int64(p.Iterations))
	main.Label("mainloop")
	// Per-iteration filler sized to hit the target WRPKRU density.
	g.emitFillerLoop(main, g.fillerPerIteration())
	if p.CallDepth > 0 {
		g.emitCallSite(main, 1)
	}
	main.Addi(regCount, regCount, -1)
	main.Bne(regCount, isa.RegZero, "mainloop")
	// Fold the data registers into a checksum so the whole dataflow is live.
	main.Movi(regScratch+1, 0)
	for i := 0; i < 10; i++ {
		main.Add(regScratch+1, regScratch+1, uint8(regData0+i))
	}
	main.Halt()

	for d := 1; d <= p.CallDepth; d++ {
		g.emitFunction(d)
	}
	g.emitFailStub()
	return b.Link()
}

func fnName(d int) string { return fmt.Sprintf("fn%d", d) }

// fillerPerIteration solves for the filler length that lands the dynamic
// WRPKRU density near the profile target.
func (p Profile) fillerPerIteration() int {
	var wrpkruPerIter float64
	switch p.Scheme {
	case SchemeSS:
		// Two WRPKRUs per function prologue.
		wrpkruPerIter = 2 * float64(p.CallDepth)
	case SchemeCPI:
		// Two WRPKRUs per protected indirect-call site.
		wrpkruPerIter = 2 * float64(p.IndirectCalls)
	case SchemeHeap:
		// Two WRPKRUs per library-boundary crossing (the deepest function
		// is the library entry point; library internals run inside it).
		wrpkruPerIter = 2
	}
	if p.TargetWrpkruPerKilo <= 0 {
		return 64
	}
	needed := 1000 * wrpkruPerIter / p.TargetWrpkruPerKilo
	// Subtract the non-filler dynamic instructions of one iteration:
	// function bodies, prologue/epilogue overhead, loop control.
	perCall := float64(p.BodyInsts + 18)
	fixed := float64(p.CallDepth)*perCall + 6
	filler := int(needed - fixed)
	if filler < 4 {
		filler = 4
	}
	return filler
}

func (g *gen) fillerPerIteration() int { return g.p.fillerPerIteration() }

// emitWrpkru honours the instrumentation variant: full emits the real
// instruction, nop substitutes OpNop (keeping everything else 1:1), none
// emits nothing. The PKRU value is re-materialised by a load-immediate
// right before the WRPKRU, which is the §IX-B compiler discipline (the
// written value must be speculation-independent); the programs are checked
// against asm.CheckWrpkruDiscipline in the tests.
func (g *gen) emitWrpkru(f *asm.FuncBuilder, reg uint8) {
	val := int64(pkruOpen)
	if reg == regProtSS {
		val = int64(pkruProtected)
	}
	switch g.v {
	case VariantFull:
		f.Movi(reg, val)
		f.Wrpkru(reg)
	case VariantNop:
		f.Movi(reg, val)
		f.Nop()
	case VariantRdpkru:
		// glibc pkey_set: read the old PKRU, adjust the managed keys'
		// bits, write it back. RDPKRU is serialized in every
		// microarchitecture (§V-C6), so this pattern re-serializes the
		// pipeline that speculative WRPKRU just freed.
		f.Rdpkru(reg)
		if val == int64(pkruOpen) {
			f.Emit(isa.Inst{Op: isa.OpAndi, Rd: reg, Rs1: reg,
				Imm: ^int64(pkruProtected)})
		} else {
			f.Emit(isa.Inst{Op: isa.OpOri, Rd: reg, Rs1: reg, Imm: val})
		}
		f.Wrpkru(reg)
	case VariantNone:
	}
}

// emitFillerLoop emits approximately n dynamic filler instructions. Long
// stretches are folded into a counted inner loop over a ~160-instruction
// body: low-WRPKRU-density workloads would otherwise become multi-thousand-
// instruction straight-line loops whose code footprint thrashes the L1I —
// real programs re-execute loop bodies.
func (g *gen) emitFillerLoop(f *asm.FuncBuilder, n int) {
	const body = 160
	if n <= 2*body {
		g.emitFiller(f, n)
		return
	}
	trips := n / body
	loop := g.label()
	f.Movi(regCount+2, int64(trips))
	f.Label(loop)
	g.emitFiller(f, body-3) // minus the loop-control instructions
	f.Addi(regCount+2, regCount+2, -1)
	f.Bne(regCount+2, isa.RegZero, loop)
	g.emitFiller(f, n%body)
}

// emitFiller emits n instructions of ALU/memory/branch mix over the data
// registers. Memory accesses are mostly confined to a hot set of pages with
// occasional excursions across the full footprint — SPEC-like locality;
// without it the DTLB miss rate is wildly unrealistic and SpecMPK's
// conservative TLB-miss deferral (§V-C5) dominates every comparison.
func (g *gen) emitFiller(f *asm.FuncBuilder, n int) {
	farMask := int64(uint64(g.p.FootprintPages)*mem.PageSize-1) &^ 7
	hotPages := 4
	if g.p.FootprintPages < hotPages {
		hotPages = g.p.FootprintPages
	}
	hotMask := int64(uint64(hotPages)*mem.PageSize-1) &^ 7
	// regLCG (the last data register) carries a dedicated LCG stream that
	// drives addresses and branch conditions. Dataflow built from repeated
	// multiplies alone degenerates — products accumulate factors of two
	// until every register is 0 — which silently flattens the branch and
	// memory behaviour; the LCG keeps full entropy for the whole run.
	const regLCG = regData0 + 9
	lcgStep := func() {
		f.Movi(regScratch, 6364136223846793005)
		f.Mul(regLCG, regLCG, regScratch)
		f.Addi(regLCG, regLCG, 1442695040888963407)
	}
	for i := 0; i < n; i++ {
		rd := uint8(regData0 + g.r.Intn(9))
		rs := uint8(regData0 + g.r.Intn(9))
		if g.p.MemEvery > 0 && i%g.p.MemEvery == g.p.MemEvery-1 {
			// LCG-hashed heap access with hot-set locality.
			mask := hotMask
			if g.r.Intn(16) == 0 {
				mask = farMask
			}
			lcgStep()
			f.Shri(regScratch, regLCG, 29)
			f.Emit(isa.Inst{Op: isa.OpAndi, Rd: regScratch, Rs1: regScratch, Imm: mask})
			f.Add(regScratch, regScratch, regHeap)
			if g.r.Intn(3) == 0 {
				f.St(rd, regScratch, 0)
			} else {
				f.Ld(rd, regScratch, 0)
			}
			i += 6 // the sequence above is 7 instructions
			continue
		}
		switch g.r.Intn(6) {
		case 0:
			f.Add(rd, rd, rs)
		case 1:
			f.Sub(rd, rd, rs)
		case 2:
			f.Xor(rd, rd, rs)
		case 3:
			// Multiply, then reinject an odd bit so products cannot decay
			// to zero.
			f.Mul(rd, rd, rs)
			f.Emit(isa.Inst{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: 1})
			i++
		case 4:
			f.Addi(rd, rs, int64(g.r.Intn(4096)))
		case 5:
			// Data-dependent branch with profile-controlled bias, fed by
			// the LCG stream.
			skip := g.label()
			lcgStep()
			f.Shri(regScratch, regLCG, 23)
			f.Emit(isa.Inst{Op: isa.OpAndi, Rd: regScratch, Rs1: regScratch, Imm: int64(g.p.BranchMask)})
			f.Bne(regScratch, isa.RegZero, skip)
			f.Addi(rd, rd, 13)
			f.Label(skip)
			i += 6
		}
	}
}

// emitCallSite calls the depth-d function, directly or (CPI) through a
// protected function pointer.
func (g *gen) emitCallSite(f *asm.FuncBuilder, d int) {
	if g.p.Scheme == SchemeCPI && d <= g.p.IndirectCalls {
		// CPI-protected code-pointer read: enable the safe region, load the
		// pointer, re-protect, then call through it. The uninstrumented
		// baseline performs the same pointer load and indirect call (the
		// original program also called through a function pointer) but
		// never engages the protection, so the region is freely readable.
		g.emitWrpkru(f, regOpen)
		f.Movi(regScratch+2, SafeBase+int64(d-1)*8)
		f.Ld(regScratch+2, regScratch+2, 0)
		g.emitWrpkru(f, regProtSS)
		f.CallIndirect(regScratch+2, 0)
		return
	}
	f.Call(fnName(d))
}

// emitFunction emits the depth-d function with the scheme's prologue and
// epilogue around a body of filler plus a call to depth d+1.
func (g *gen) emitFunction(d int) {
	f := g.b.Func(fnName(d))
	ss := g.p.Scheme == SchemeSS && g.v != VariantNone
	// PKRU-Safe: the deepest function is the unsafe library's entry point;
	// its heap accesses target the access-disabled unsafe heap, enabled
	// only for the duration of the call. (One level only — nested library
	// boundaries would need a stack of saved states.)
	lib := g.p.Scheme == SchemeHeap && d == g.p.CallDepth

	// Regular-stack frame: save RA (the memory-corruption target SS guards).
	f.Addi(isa.RegSP, isa.RegSP, -16)
	f.St(isa.RegRA, isa.RegSP, 0)
	if ss {
		// SS prologue (paper §VI-B1): enable shadow writes, push RA,
		// immediately revert to read-only, bump the shadow pointer.
		g.emitWrpkru(f, regOpen)
		f.St(isa.RegRA, regSSP, 0)
		g.emitWrpkru(f, regProtSS)
		f.Addi(regSSP, regSSP, 8)
	}
	if lib {
		// Library entry: unlock the unsafe heap and point the heap base at
		// it for the body's memory traffic.
		g.emitWrpkru(f, regOpen)
		f.Addi(regScratch+6, regHeap, 0)
		f.Movi(regHeap, UnsafeHeapBase)
	}

	g.emitFiller(f, g.p.BodyInsts)
	if d < g.p.CallDepth {
		g.emitCallSite(f, d+1)
	}

	if lib {
		// Library exit: restore the safe heap base and re-lock.
		f.Addi(regHeap, regScratch+6, 0)
		g.emitWrpkru(f, regProtSS)
	}
	if ss {
		// SS epilogue: pop the shadow copy (reads are allowed under WD)
		// and compare with the regular-stack RA; mismatch crashes.
		f.Addi(regSSP, regSSP, -8)
		f.Ld(regScratch+3, regSSP, 0)
		f.Ld(regScratch+4, isa.RegSP, 0)
		f.Bne(regScratch+3, regScratch+4, "ssfail")
	}
	f.Ld(isa.RegRA, isa.RegSP, 0)
	f.Addi(isa.RegSP, isa.RegSP, 16)
	f.Ret()
}

// emitFailStub is the crash target for a shadow-stack mismatch: it writes a
// sentinel and halts, modelling the process abort.
func (g *gen) emitFailStub() {
	f := g.b.Func("ssfail")
	f.Movi(regScratch+5, 0xdead)
	f.St(regScratch+5, regHeap, 0)
	f.Halt()
}

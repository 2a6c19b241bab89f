package pipeline

import (
	"errors"
	"math/rand"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/trace"
)

// TestRdpkruSerialization: RDPKRU must read the committed PKRU in every
// mode, even with WRPKRUs racing ahead of it in the instruction stream.
func TestRdpkruSerialization(t *testing.T) {
	v1 := int64(mpk.AllowAll.WithKey(4, mpk.Perm{AD: true}))
	v2 := int64(mpk.AllowAll.WithKey(5, mpk.Perm{WD: true}))
	p := buildProg(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(9, v1)
		f.Movi(10, v2)
		f.Wrpkru(9)
		f.Rdpkru(11) // must observe v1
		f.Wrpkru(10)
		f.Rdpkru(12) // must observe v2
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(100000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := m.ArchReg(11); got != uint64(v1) {
			t.Fatalf("%v: first rdpkru = %#x, want %#x", mode, got, v1)
		}
		if got := m.ArchReg(12); got != uint64(v2) {
			t.Fatalf("%v: second rdpkru = %#x, want %#x", mode, got, v2)
		}
	}
}

// TestClflushEvictsInPipeline: a CLFLUSH between two loads of the same line
// makes the second load slow again.
func TestClflushEvictsInPipeline(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Ld(9, 4, 0) // warm
		// Dependency chain so the flush and second load are ordered.
		f.Addi(20, 9, 0)
		for i := 0; i < 6; i++ {
			f.Mul(20, 20, 20)
		}
		f.Andi(20, 20, 0)
		f.Add(4, 4, 20)
		f.Clflush(4, 0)
		f.Ld(10, 4, 0) // must miss again
		f.Halt()
	})
	m := newMachine(t, ModeNonSecure, p)
	loads := trace.Loads{}
	m.Events = loads
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	lats := loads[heapBase]
	if len(lats) != 2 {
		t.Fatalf("saw %d loads", len(lats))
	}
	if lats[1] < 100 {
		t.Fatalf("post-flush load latency %d; expected a miss", lats[1])
	}
}

// TestByteOpsAndForwarding covers Lb/Sb through the pipeline including
// exact-size forwarding and the conservative partial-overlap stall.
func TestByteOpsAndForwarding(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(9, 0x1FF)
		f.Sb(9, 4, 0)  // stores 0xFF
		f.Lb(10, 4, 0) // exact byte forward: 0xFF
		f.Movi(11, 0xAABB)
		f.St(11, 4, 8)
		f.Lb(12, 4, 8) // partial overlap: conservative head replay, 0xBB
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(100000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.ArchReg(10) != 0xFF {
			t.Fatalf("%v: byte forward = %#x", mode, m.ArchReg(10))
		}
		if m.ArchReg(12) != 0xBB {
			t.Fatalf("%v: partial overlap = %#x", mode, m.ArchReg(12))
		}
	}
}

// TestIndirectCallsPredictViaBTB: repeated indirect calls to a stable
// target should become well-predicted.
func TestIndirectCallsPredictViaBTB(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.DataSymbol(heapBase, "callee")
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Ld(5, 4, 0) // function pointer
		f.Movi(9, 300).Movi(10, 0)
		f.Label("loop")
		f.CallIndirect(5, 0)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
		c := b.Func("callee")
		c.Addi(10, 10, 1)
		c.Ret()
	})
	m := newMachine(t, ModeSpecMPK, p)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 300 {
		t.Fatalf("count = %d", m.ArchReg(10))
	}
	// One cold BTB miss plus noise; the steady state must be predicted.
	if m.Stats.Mispredicts > 15 {
		t.Fatalf("indirect-call mispredicts = %d", m.Stats.Mispredicts)
	}
}

// TestFaultHandlerSkip: skipping a faulting instruction resumes after it.
func TestFaultHandlerSkipInPipeline(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(27, int64(pkruDeny))
		f.Wrpkru(27)
		f.Ld(10, 4, 0) // faults; handler skips
		f.Movi(11, 55) // must still execute
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		m.FaultHandler = func(*mem.Fault, *mpk.PKRU) mem.FaultAction { return mem.FaultSkip }
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.ArchReg(11) != 55 {
			t.Fatalf("%v: execution did not resume past the skip", mode)
		}
	}
}

// TestTLBDeferralAblation: disabling the §V-C5 conservatism must not change
// architectural results, must eliminate TLB-miss head-stalls, and exposes
// the transient TLB fill the rule exists to prevent.
func TestTLBDeferralAblation(t *testing.T) {
	p := genRandom(t, 99)
	ref, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(3_000_000, 1); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Digest()

	strict := DefaultConfig()
	strict.Mode = ModeSpecMPK
	ablated := strict
	ablated.NoTLBDeferral = true

	for _, cfg := range []Config{strict, ablated} {
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(30_000_000); err != nil {
			t.Fatal(err)
		}
		got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
		if got != want {
			t.Fatalf("NoTLBDeferral=%v: architectural divergence", cfg.NoTLBDeferral)
		}
	}
}

// TestTLBDeferralBlocksTransientFill is the security side of the ablation:
// with deferral on, a transient load of a never-before-touched page leaves
// no DTLB trace; with the ablation it does.
func TestTLBDeferralBlocksTransientFill(t *testing.T) {
	const hidden = uint64(0x55000000)
	build := func() *asm.Program {
		return buildProg(t, func(b *asm.Builder) {
			b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
			b.Region("hidden", hidden, mem.PageSize, mem.ProtRW, 0)
			f := b.Func("main")
			f.Movi(4, heapBase)
			f.Movi(5, heapBase+128) // safe gate target while training
			f.Movi(11, 1)
			f.St(11, 4, 0)
			f.Movi(9, 40)
			f.Label("train")
			f.Call("gate")
			f.Addi(9, 9, -1)
			f.Bne(9, isa.RegZero, "train")
			// Arm the misprediction, pointing the gate at the cold page.
			f.Movi(5, int64(hidden))
			f.Movi(11, 0)
			f.St(11, 4, 0)
			f.Addi(21, 11, 0)
			for i := 0; i < 10; i++ {
				f.Mul(21, 21, 21)
			}
			f.Add(4, 4, 21)
			f.Clflush(4, 0)
			f.Call("gate")
			f.Halt()
			v := b.Func("gate")
			v.Ld(16, 4, 0)
			v.Beq(16, isa.RegZero, "skip")
			f2 := v // trained not-taken; transient path touches the page
			f2.Ld(17, 5, 0)
			v.Label("skip")
			v.Ret()
		})
	}
	for _, ablate := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Mode = ModeSpecMPK
		cfg.NoTLBDeferral = ablate
		m, err := New(cfg, build())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("ablate=%v: %v", ablate, err)
		}
		resident := m.DTLB.Probe(hidden >> mem.PageBits)
		if ablate && !resident {
			t.Fatal("ablated machine should have filled the TLB transiently")
		}
		if !ablate && resident {
			t.Fatal("deferral must keep the transient page out of the TLB")
		}
	}
}

// TestSquashStorm: a branchy, WRPKRU-dense program with terrible
// predictability stresses squash recovery; invariants must hold and the
// architectural result must match the reference.
func TestSquashStorm(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(r.Uint32())
	}
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(3, shadowBase)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruProtect))
		f.Wrpkru(27)
		// Seed unpredictable data in memory.
		for i, v := range vals {
			f.Movi(9, v)
			f.St(9, 4, int64(i)*8)
		}
		f.Movi(8, 400) // iterations
		f.Movi(10, 0)  // checksum
		f.Movi(11, 1)  // lcg state
		f.Label("loop")
		// LCG step, then three data-dependent branches off its bits.
		f.Movi(12, 6364136223846793005)
		f.Mul(11, 11, 12)
		f.Addi(11, 11, 1442695040888963407)
		f.Shri(13, 11, 33)
		f.Andi(14, 13, 0x1F8) // pick a slot
		f.Add(14, 14, 4)
		f.Ld(15, 14, 0)
		f.Andi(16, 15, 1)
		f.Beq(16, isa.RegZero, "even")
		f.Addi(10, 10, 3)
		f.Wrpkru(26) // speculative window crosses permission changes
		f.St(10, 3, 0)
		f.Wrpkru(27)
		f.Jump("join")
		f.Label("even")
		f.Addi(10, 10, 7)
		f.Label("join")
		f.Andi(16, 13, 2)
		f.Beq(16, isa.RegZero, "skip2")
		f.Xor(10, 10, 15)
		f.Label("skip2")
		f.Addi(8, 8, -1)
		f.Bne(8, isa.RegZero, "loop")
		f.Halt()
	})
	ref, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(5_000_000, 1); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Digest()
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
		if got != want {
			t.Fatalf("%v: diverged under squash storm", mode)
		}
		if m.Stats.Mispredicts < 100 {
			t.Fatalf("%v: storm too calm (%d mispredicts)", mode, m.Stats.Mispredicts)
		}
		if m.FreeRegCount()+isa.NumRegs != m.Cfg.PRFSize {
			t.Fatalf("%v: free-list leak after storm", mode)
		}
		if mode != ModeSerialized && !m.PKRUState.Quiesced() {
			t.Fatalf("%v: ROB_pkru not quiesced after storm", mode)
		}
		if m.InFlight() != 0 {
			t.Fatalf("%v: active list not drained", mode)
		}
	}
}

// TestTinyROBPkruStillCorrect: a 1-entry ROB_pkru is slow but must stay
// architecturally correct.
func TestTinyROBPkruStillCorrect(t *testing.T) {
	p := wrpkruHeavy(t, 40)
	cfg := DefaultConfig()
	cfg.Mode = ModeSpecMPK
	cfg.ROBPkruSize = 1
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 40*41/2 {
		t.Fatalf("checksum %d", m.ArchReg(10))
	}
	if m.Stats.PkruFullStallCycles == 0 {
		t.Fatal("1-entry ROB_pkru must stall")
	}
}

// TestWarmStartEquivalence: NewWithState resumed from a functional
// checkpoint must complete with the same architectural result as a cold run.
func TestWarmStartEquivalence(t *testing.T) {
	p := genRandom(t, 17)
	ref, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(3_000_000, 1); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Digest()

	// Fast-forward a fresh reference 1000 instructions, then hand off.
	ff, _ := funcsim.New(p)
	if err := ff.Run(1000, 1); err != nil && err != funcsim.ErrLimit {
		t.Fatal(err)
	}
	th := ff.Threads[0]
	cfg := DefaultConfig()
	m, err := NewWithState(cfg, p, ff.AS, &th.Regs, th.PKRU, th.PC)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(30_000_000); err != nil {
		t.Fatal(err)
	}
	got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
	if got != want {
		t.Fatal("warm-started run diverged")
	}
}

// TestRunInsts stops at the requested count.
func TestRunInsts(t *testing.T) {
	p := wrpkruHeavy(t, 100)
	m := newMachine(t, ModeSpecMPK, p)
	if err := m.RunInsts(500, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Insts < 500 || m.Stats.Insts > 520 {
		t.Fatalf("insts = %d", m.Stats.Insts)
	}
	// Exhausting the budget returns ErrCycleLimit.
	m2 := newMachine(t, ModeSpecMPK, p)
	if err := m2.RunInsts(1_000_000_000, 100); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("want cycle limit, got %v", err)
	}
}

// TestHaltOnWrongPath: a transiently fetched HALT must not stop the machine.
func TestHaltOnWrongPath(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(9, 60).Movi(10, 0)
		f.Label("loop")
		f.Ld(11, 4, 0) // always 0
		f.Bne(11, isa.RegZero, "trap")
		f.Addi(10, 10, 1)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
		f.Label("trap")
		f.Halt() // reachable only transiently
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.ArchReg(10) != 60 {
			t.Fatalf("%v: loop cut short at %d", mode, m.ArchReg(10))
		}
	}
}

// TestArchRegAccessors sanity-checks the public state accessors.
func TestArchRegAccessors(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.InitReg(7, 123)
		f := b.Func("main")
		f.Movi(9, 77)
		f.Halt()
	})
	m := newMachine(t, ModeSpecMPK, p)
	if m.ArchReg(7) != 123 {
		t.Fatal("InitReg must seed the register file")
	}
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	regs := m.ArchRegs()
	if regs[9] != 77 || regs[7] != 123 || regs[0] != 0 {
		t.Fatalf("regs: %v", regs[:10])
	}
	if !m.Halted() || m.Fault() != nil || m.Cycle() == 0 {
		t.Fatal("status accessors")
	}
}

// TestMemDepSpeculationEquivalence: optimistic disambiguation with
// violation squashes must preserve architectural results across all modes,
// and actually speculate (violations occur on the random programs).
func TestMemDepSpeculationEquivalence(t *testing.T) {
	var violations uint64
	for seed := int64(30); seed < 38; seed++ {
		p := genRandom(t, seed)
		ref, err := funcsim.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(3_000_000, 1); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Digest()
		for _, mode := range allModes() {
			cfg := DefaultConfig()
			cfg.Mode = mode
			cfg.MemDepSpeculation = true
			m, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(30_000_000); err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
			if got != want {
				t.Fatalf("seed %d %v: diverged under memdep speculation", seed, mode)
			}
			if m.FreeRegCount()+isa.NumRegs != m.Cfg.PRFSize {
				t.Fatalf("seed %d %v: free-list leak", seed, mode)
			}
			violations += m.Stats.MemOrderViolations
		}
	}
	if violations == 0 {
		t.Fatal("the test never exercised a violation squash")
	}
}

// TestMemDepViolationDirected forces a violation: a load issues before an
// older slow-addressed store to the same location resolves.
func TestMemDepViolationDirected(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(8, 3) // iterations: the first warms the I-cache
		f.Movi(14, 0)
		f.Label("loop")
		f.Movi(9, 111)
		f.St(9, 4, 0) // reset the slot
		// Slow address chain for the conflicting store: the flushed load
		// misses every iteration.
		f.Clflush(4, 256)
		f.Ld(10, 4, 256)
		f.Addi(11, 10, 0)
		for i := 0; i < 8; i++ {
			f.Mul(11, 11, 11)
		}
		f.Andi(11, 11, 0)
		f.Add(11, 11, 4) // == heapBase, resolved late
		f.Movi(12, 222)
		f.St(12, 11, 0) // store to heapBase with slow address
		f.Ld(13, 4, 0)  // speculates past it, reads 111, must squash to 222
		f.Add(14, 14, 13)
		f.Addi(8, 8, -1)
		f.Bne(8, isa.RegZero, "loop")
		f.Halt()
	})
	cfg := DefaultConfig()
	cfg.MemDepSpeculation = true
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ArchReg(14); got != 3*222 {
		t.Fatalf("checksum = %d, want %d (store-to-load ordering broken)", got, 3*222)
	}
	if m.Stats.MemOrderViolations == 0 {
		t.Fatal("expected a violation squash")
	}
	if len(m.violators) == 0 {
		t.Fatal("violator blacklist empty")
	}
}

// TestStallSuspectStoresEquivalence: the §V-C2 ablation (suspect stores
// withhold their address until retirement) must stay architecturally
// correct with and without memory-dependence speculation.
func TestStallSuspectStoresEquivalence(t *testing.T) {
	for seed := int64(50); seed < 56; seed++ {
		p := genRandom(t, seed)
		ref, err := funcsim.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(3_000_000, 1); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Digest()
		for _, memdep := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Mode = ModeSpecMPK
			cfg.StallSuspectStores = true
			cfg.MemDepSpeculation = memdep
			m, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(60_000_000); err != nil {
				t.Fatalf("seed %d memdep=%v: %v", seed, memdep, err)
			}
			got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
			if got != want {
				t.Fatalf("seed %d memdep=%v: diverged", seed, memdep)
			}
		}
	}
}

// TestSuspectStoreDesignChoice reproduces the §V-C2 justification: letting
// check-failing stores execute (address generation intact) avoids the
// memory-order violations the withheld-address variant suffers.
func TestSuspectStoreDesignChoice(t *testing.T) {
	p := wrpkruHeavy(t, 200)
	run := func(stall bool) Stats {
		cfg := DefaultConfig()
		cfg.Mode = ModeSpecMPK
		cfg.MemDepSpeculation = true
		cfg.StallSuspectStores = stall
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(60_000_000); err != nil {
			t.Fatal(err)
		}
		if m.ArchReg(10) != 200*201/2 {
			t.Fatalf("stall=%v: wrong checksum", stall)
		}
		return m.Stats
	}
	paper := run(false)
	ablated := run(true)
	if ablated.MemOrderViolations <= paper.MemOrderViolations {
		t.Fatalf("withheld addresses should cause more violations: paper=%d ablated=%d",
			paper.MemOrderViolations, ablated.MemOrderViolations)
	}
	if paper.IPC() <= ablated.IPC() {
		t.Fatalf("the paper's choice should be faster: %.3f vs %.3f",
			paper.IPC(), ablated.IPC())
	}
}

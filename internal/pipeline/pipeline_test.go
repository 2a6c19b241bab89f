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

const (
	heapBase   = 0x20000000
	heapSize   = 16 * mem.PageSize
	shadowBase = 0x60000000
	shadowSize = 4 * mem.PageSize
)

var (
	pkruOpen    = uint64(mpk.AllowAll)
	pkruProtect = uint64(mpk.AllowAll.WithKey(1, mpk.Perm{WD: true}))
	pkruDeny    = uint64(mpk.AllowAll.WithKey(1, mpk.Perm{AD: true}))
)

// allModes sweeps every registered policy, so the generic correctness tests
// (precise faults, WRPKRU semantics, squash recovery, funcsim equivalence)
// cover policies added through the seam as well as the paper's three.
func allModes() []Mode { return RegisteredModes() }

func newMachine(t *testing.T, mode Mode, p *asm.Program) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildProg(t *testing.T, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(0x10000)
	f(b)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimpleLoopAllModes(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(9, 100).Movi(10, 0)
		f.Label("loop")
		f.Add(10, 10, 9)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := m.ArchReg(10); got != 5050 {
			t.Fatalf("%v: sum = %d", mode, got)
		}
		if ipc := m.Stats.IPC(); ipc < 0.3 || ipc > 8 {
			t.Fatalf("%v: implausible IPC %.2f", mode, ipc)
		}
		if m.FreeRegCount()+isa.NumRegs != m.Cfg.PRFSize {
			t.Fatalf("%v: free-list leak: %d free", mode, m.FreeRegCount())
		}
		if !m.PKRUState.Quiesced() && mode != ModeSerialized {
			t.Fatalf("%v: ROB_pkru not quiesced", mode)
		}
	}
}

func TestCallsAndReturnsPredictWell(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(9, 200).Movi(10, 0)
		f.Label("loop")
		f.Call("leaf")
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
		g := b.Func("leaf")
		g.Addi(10, 10, 3)
		g.Ret()
	})
	m := newMachine(t, ModeSpecMPK, p)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 600 {
		t.Fatalf("result %d", m.ArchReg(10))
	}
	if m.Stats.Returns != 200 || m.Stats.Calls != 200 {
		t.Fatalf("calls=%d returns=%d", m.Stats.Calls, m.Stats.Returns)
	}
	// RAS should make returns near-perfect; total mispredicts should be a
	// handful of cold ones.
	if m.Stats.Mispredicts > 20 {
		t.Fatalf("too many mispredicts: %d", m.Stats.Mispredicts)
	}
}

func TestStoreLoadForwardingAndMemory(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(9, 1234)
		f.St(9, 4, 0)
		f.Ld(10, 4, 0) // forwarded
		f.St(10, 4, 8)
		f.Ld(11, 4, 8)
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(100000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.ArchReg(10) != 1234 || m.ArchReg(11) != 1234 {
			t.Fatalf("%v: r10=%d r11=%d", mode, m.ArchReg(10), m.ArchReg(11))
		}
		v, _ := m.AS.ReadVirt64(heapBase + 8)
		if v != 1234 {
			t.Fatalf("%v: memory = %d", mode, v)
		}
	}
}

// wrpkruHeavy builds an SS-style loop: every iteration enables shadow
// writes, stores, re-protects.
func wrpkruHeavy(t *testing.T, iters int64) *asm.Program {
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(9, iters)
		f.Movi(10, 0)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruProtect))
		f.Wrpkru(27)
		f.Label("loop")
		f.Wrpkru(26)  // enable shadow writes (prologue)
		f.St(9, 4, 0) // push to shadow stack
		f.Wrpkru(27)  // protect again
		// Function-body filler: in real shadow-stack usage the prologue
		// store and epilogue load are separated by the function body, so
		// the store has retired before the load executes.
		for i := 0; i < 24; i++ {
			f.Add(uint8(12+i%6), uint8(12+i%6), 9)
		}
		f.Ld(11, 4, 0) // epilogue read (reads always allowed under WD)
		f.Add(10, 10, 11)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
	})
}

func TestWrpkruCorrectAcrossModes(t *testing.T) {
	p := wrpkruHeavy(t, 50)
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := m.ArchReg(10); got != 50*51/2 {
			t.Fatalf("%v: checksum %d", mode, got)
		}
		if m.Stats.Wrpkru != 2*50+1 {
			t.Fatalf("%v: wrpkru count %d", mode, m.Stats.Wrpkru)
		}
		if m.PKRU() != mpk.PKRU(pkruProtect) {
			t.Fatalf("%v: final PKRU %v", mode, m.PKRU())
		}
	}
}

func TestSerializedSlowerThanSpeculative(t *testing.T) {
	p := wrpkruHeavy(t, 300)
	cycles := map[Mode]uint64{}
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		cycles[mode] = m.Stats.Cycles
		if mode == ModeSerialized && m.Stats.SerializeStallCycles == 0 {
			t.Fatal("serialized mode must record serialization stalls")
		}
	}
	if cycles[ModeSerialized] <= cycles[ModeNonSecure] {
		t.Fatalf("serialized (%d) must be slower than nonsecure (%d)",
			cycles[ModeSerialized], cycles[ModeNonSecure])
	}
	if cycles[ModeSerialized] <= cycles[ModeSpecMPK] {
		t.Fatalf("serialized (%d) must be slower than specmpk (%d)",
			cycles[ModeSerialized], cycles[ModeSpecMPK])
	}
	// SpecMPK sits between the two. This microbenchmark is far denser in
	// WRPKRU (~65/kinst) than any paper workload (Fig. 10 tops out around
	// 25/kinst), so the forwarding-block head-stalls are exaggerated here;
	// the near-identical-to-NonSecure claim is checked at realistic
	// densities by the workload benches.
	ratio := float64(cycles[ModeSpecMPK]) / float64(cycles[ModeNonSecure])
	if ratio > 2.0 {
		t.Fatalf("specmpk/nonsecure cycle ratio %.2f too high", ratio)
	}
}

func TestPkeyFaultPrecise(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(9, 7) // must be committed when the fault arrives
		f.Movi(27, int64(pkruDeny))
		f.Wrpkru(27)
		f.Ld(10, 4, 0) // faults: key 1 access-disabled
		f.Movi(9, 999) // younger: must never commit
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		err := m.Run(100000)
		var f *mem.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%v: want fault, got %v", mode, err)
		}
		if f.Kind != mem.FaultPkey || f.PKey != 1 || f.Access != mem.Read {
			t.Fatalf("%v: wrong fault %v", mode, f)
		}
		if m.ArchReg(9) != 7 {
			t.Fatalf("%v: younger instruction committed past the fault (r9=%d)",
				mode, m.ArchReg(9))
		}
	}
}

func TestStorePkeyFaultPrecise(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(27, int64(pkruProtect))
		f.Wrpkru(27)
		f.St(4, 4, 0) // faults: key 1 write-disabled
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		err := m.Run(100000)
		var f *mem.Fault
		if !errors.As(err, &f) || f.Kind != mem.FaultPkey || f.Access != mem.Write {
			t.Fatalf("%v: want pkey write fault, got %v", mode, err)
		}
		// The store must not have reached memory.
		v, _ := m.AS.ReadVirt64(shadowBase)
		if v != 0 {
			t.Fatalf("%v: faulting store leaked to memory", mode)
		}
	}
}

func TestFaultHandlerRetry(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(27, int64(pkruDeny))
		f.Wrpkru(27)
		f.Ld(10, 4, 0)
		f.Addi(10, 10, 1)
		f.Halt()
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		calls := 0
		m.FaultHandler = func(f *mem.Fault, pkru *mpk.PKRU) mem.FaultAction {
			calls++
			*pkru = pkru.WithKey(f.PKey, mpk.Perm{})
			return mem.FaultRetry
		}
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if calls != 1 {
			t.Fatalf("%v: handler calls = %d", mode, calls)
		}
		if m.ArchReg(10) != 1 {
			t.Fatalf("%v: r10 = %d", mode, m.ArchReg(10))
		}
	}
}

func TestTransientFaultIsSquashed(t *testing.T) {
	// A load that would fault sits on the wrong path of a mispredicted
	// branch; the program must complete cleanly.
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(27, int64(pkruDeny))
		f.Wrpkru(27)
		f.Movi(9, 40).Movi(10, 0)
		f.Label("loop")
		// Train not-taken, flip on the last iteration... actually always
		// not-taken here: the branch guards the poison load and is never
		// architecturally taken, but cold prediction may speculate into it.
		f.Movi(11, 1)
		f.Beq(11, isa.RegZero, "poison")
		f.Addi(10, 10, 1)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
		f.Label("poison")
		f.Ld(12, 4, 0) // would fault if it ever retired
		f.Jump("loop")
	})
	for _, mode := range allModes() {
		m := newMachine(t, mode, p)
		if err := m.Run(1_000_000); err != nil {
			t.Fatalf("%v: wrong-path fault escaped: %v", mode, err)
		}
		if m.ArchReg(10) != 40 {
			t.Fatalf("%v: r10 = %d", mode, m.ArchReg(10))
		}
	}
}

// --- The transient permission-upgrade side channel (paper Fig. 12c) -------

// spectreGadget returns a program whose victim branch is trained taken and
// then flips; the protected load sits after a WRPKRU that transiently
// enables the secret's pKey. secretLine is the probe target.
func spectreGadget(t *testing.T) (*asm.Program, uint64) {
	const secretBase = 0x62000000
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("secret", secretBase, mem.PageSize, mem.ProtRW, 3)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(5, secretBase)
		f.Movi(26, int64(mpk.AllowAll))
		f.Movi(27, int64(mpk.AllowAll.WithKey(3, mpk.Perm{AD: true})))
		f.Wrpkru(27) // secret locked
		// Train: 60 iterations with r9 > 0 (branch taken), then one with 0.
		f.Movi(9, 60)
		f.Label("outer")
		// if r9 != 0 { enable; ld secret; disable } -- trained taken
		f.Beq(9, isa.RegZero, "attack")
		f.Movi(20, heapBase+0x100)
		f.Ld(21, 20, 0) // benign load in the trained path
		f.Jump("cont")
		f.Label("attack")
		f.Wrpkru(26)   // transient enable on the mispredicted path
		f.Ld(22, 5, 0) // secret access!
		f.Wrpkru(27)
		f.Jump("done")
		f.Label("cont")
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "outer")
		// fallthrough when r9 hits 0: branch at "outer" now goes to attack;
		// but we jump straight to done so the attack block only ever runs
		// transiently.
		f.Label("done")
		f.Halt()
	}), secretBase
}

func TestTransientPermissionUpgradeBlockedBySpecMPK(t *testing.T) {
	// NOTE: with r9 == 0 the branch architecturally *goes* to the attack
	// label... to keep the attack purely transient, the gadget above ends
	// before r9 reaches zero; the misprediction happens because the loop's
	// final bne falls through and "done" halts. The simpler, robust check:
	// run the gadget and inspect whether the secret's cache line was ever
	// installed.
	for _, mode := range []Mode{ModeNonSecure, ModeSpecMPK, ModeSerialized} {
		p, secretBase := spectreGadget(t)
		m := newMachine(t, mode, p)
		loads := trace.Loads{}
		m.Events = loads
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		touched := len(loads[secretBase]) > 0
		switch mode {
		case ModeNonSecure:
			if !touched {
				t.Skip("gadget did not speculate into the attack block; prediction too good")
			}
		case ModeSpecMPK, ModeSerialized:
			if touched {
				t.Fatalf("%v: transient secret access went through", mode)
			}
		}
	}
}

func TestSpecMPKBlocksForwardingFromProtectedStore(t *testing.T) {
	// A store whose write permission is only enabled *speculatively* (the
	// enabling WRPKRU has executed but not committed; the committed PKRU
	// still write-disables the key) must not forward — the speculative
	// buffer overflow defence. The load still gets the right value at
	// retirement. A long-latency load ahead keeps retirement back so the
	// enabling WRPKRU stays in the window.
	p := buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(5, heapBase+0x800)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruProtect))
		f.Ld(25, 4, 0) // warm the shadow DTLB entry so the window exercises
		f.Nop()        // the PKRU checks rather than the TLB-miss stall
		f.Wrpkru(27)   // committed: key 1 write-disabled
		f.Ld(24, 5, 0) // cold miss: blocks retirement for a long time
		f.Wrpkru(26)   // transient enable (stuck behind the cold load)
		f.Movi(9, 77)
		f.St(9, 4, 0)  // store under transient write-enable -> check fails
		f.Ld(10, 4, 0) // would forward; SpecMPK defers it to the head
		f.Wrpkru(27)
		f.Halt()
	})
	m := newMachine(t, ModeSpecMPK, p)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 77 {
		t.Fatalf("r10 = %d", m.ArchReg(10))
	}
	if m.Stats.StoresNoForward == 0 {
		t.Fatal("store check should have suppressed forwarding")
	}
	if m.Stats.ForwardBlockedLoads == 0 {
		t.Fatal("load should have been blocked from forwarding")
	}
	// NonSecure forwards it.
	m2 := newMachine(t, ModeNonSecure, p)
	if err := m2.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.LoadsForwarded == 0 {
		t.Fatal("nonsecure should forward")
	}
}

// --- Random-program equivalence against the functional simulator ----------

// genRandom builds a deterministic random program exercising ALU ops,
// branches, calls, memory traffic, and correct MPK usage.
func genRandom(t *testing.T, seed int64) *asm.Program {
	r := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder(0x10000)
	b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
	b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)

	const nFuncs = 4
	// A function-pointer table for indirect calls lives in the heap.
	for d := 1; d < nFuncs; d++ {
		b.DataSymbol(uint64(heapBase+0x8000+(d-1)*8), "fn"+string(rune('0'+d)))
	}
	emitBody := func(f *asm.FuncBuilder, depth int, blocks int) {
		for blk := 0; blk < blocks; blk++ {
			for i := 0; i < 3+r.Intn(6); i++ {
				rd := uint8(9 + r.Intn(10))
				rs1 := uint8(9 + r.Intn(10))
				rs2 := uint8(9 + r.Intn(10))
				switch r.Intn(10) {
				case 0:
					f.Add(rd, rs1, rs2)
				case 1:
					f.Sub(rd, rs1, rs2)
				case 2:
					f.Xor(rd, rs1, rs2)
				case 3:
					f.Mul(rd, rs1, rs2)
				case 4:
					f.Addi(rd, rs1, int64(r.Intn(1000)))
				case 5: // load from hashed heap slot
					f.Andi(19, rs1, 0x3ff8)
					f.Add(19, 19, 4)
					f.Ld(rd, 19, 0)
				case 6: // store to hashed heap slot
					f.Andi(19, rs1, 0x3ff8)
					f.Add(19, 19, 4)
					f.St(rs2, 19, 0)
				case 7: // data-dependent forward skip
					f.Andi(19, rs1, 1)
					skip := "skip" + string(rune('a'+blk)) + string(rune('a'+i))
					f.Beq(19, isa.RegZero, skip)
					f.Addi(rd, rd, 17)
					f.Label(skip)
				case 8: // byte store + load (exercises Sb/Lb + forwarding)
					f.Andi(19, rs1, 0x3ff8)
					f.Add(19, 19, 4)
					f.Sb(rs2, 19, 1)
					f.Lb(rd, 19, 1)
				case 9: // mul with odd-bit reinjection (keeps entropy)
					f.Mul(rd, rd, rs1)
					f.Emit(isa.Inst{Op: isa.OpOri, Rd: rd, Rs1: rd, Imm: 1})
				}
			}
			if depth < nFuncs-1 && r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					f.Call("fn" + string(rune('0'+depth+1)))
				} else {
					// Indirect call through the heap function-pointer table.
					f.Movi(20, int64(heapBase+0x8000+depth*8))
					f.Ld(20, 20, 0)
					f.CallIndirect(20, 0)
				}
			}
			if r.Intn(4) == 0 { // SS-style protected push
				f.Movi(26, int64(pkruOpen))
				f.Movi(27, int64(pkruProtect))
				f.Wrpkru(26)
				f.Andi(19, uint8(9+r.Intn(10)), 0xff8)
				f.Add(19, 19, 3)
				f.St(uint8(9+r.Intn(10)), 19, 0)
				f.Wrpkru(27)
			}
		}
	}

	main := b.Func("main")
	main.Movi(4, heapBase)
	main.Movi(3, shadowBase)
	main.Movi(27, int64(pkruProtect))
	main.Wrpkru(27)
	for rr := 9; rr < 19; rr++ {
		main.Movi(uint8(rr), int64(r.Intn(1<<16)))
	}
	main.Movi(8, int64(5+r.Intn(10))) // loop count
	main.Label("mainloop")
	emitBody(main, 0, 2)
	main.Addi(8, 8, -1)
	main.Bne(8, isa.RegZero, "mainloop")
	// checksum
	main.Movi(20, 0)
	for rr := 9; rr < 19; rr++ {
		main.Add(20, 20, uint8(rr))
	}
	main.Halt()

	for d := 1; d < nFuncs; d++ {
		fn := b.Func("fn" + string(rune('0'+d)))
		// Callee-saves ra on the (software) stack? Keep leaf-style: save ra
		// in a scratch register unique to depth to allow nested calls.
		fn.Addi(uint8(28+d%3), isa.RegRA, 0)
		emitBody(fn, d, 1)
		fn.Addi(isa.RegRA, uint8(28+d%3), 0)
		fn.Ret()
	}
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRandomProgramEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := genRandom(t, seed)
		ref, err := funcsim.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(3_000_000, 1); err != nil {
			t.Fatalf("seed %d: funcsim: %v", seed, err)
		}
		refDigest, err := ref.Digest()
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes() {
			m := newMachine(t, mode, p)
			if err := m.Run(30_000_000); err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			got, err := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
			if err != nil {
				t.Fatal(err)
			}
			if got != refDigest {
				regs := m.ArchRegs()
				for r := 0; r < isa.NumRegs; r++ {
					if regs[r] != ref.Threads[0].Regs[r] {
						t.Logf("seed %d %v: r%d = %#x want %#x", seed, mode, r, regs[r], ref.Threads[0].Regs[r])
					}
				}
				t.Fatalf("seed %d %v: architectural state diverged", seed, mode)
			}
			if m.FreeRegCount()+isa.NumRegs != m.Cfg.PRFSize {
				t.Fatalf("seed %d %v: free-list leak", seed, mode)
			}
			if mode != ModeSerialized && !m.PKRUState.Quiesced() {
				t.Fatalf("seed %d %v: ROB_pkru not quiesced", seed, mode)
			}
		}
	}
}

func TestCycleLimit(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Label("spin")
		f.Jump("spin")
	})
	m := newMachine(t, ModeSpecMPK, p)
	if err := m.Run(500); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("want cycle limit, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) { b.Func("main").Halt() })
	bad := DefaultConfig()
	bad.Width = 0
	if _, err := New(bad, p); err == nil {
		t.Fatal("zero width must be rejected")
	}
	bad = DefaultConfig()
	bad.ROBPkruSize = 0
	if _, err := New(bad, p); err == nil {
		t.Fatal("zero ROB_pkru in spec mode must be rejected")
	}
	ser := DefaultConfig()
	ser.Mode = ModeSerialized
	ser.ROBPkruSize = 0
	if _, err := New(ser, p); err != nil {
		t.Fatalf("serialized mode needs no ROB_pkru: %v", err)
	}
	// Sizes beyond the fixed upper bounds, and geometry the cache, TLB and
	// BTB constructors reject, are errors rather than huge allocations or
	// panics.
	for name, set := range map[string]func(*Config){
		"AL":         func(c *Config) { c.ALSize = 1 << 40 },
		"PRF":        func(c *Config) { c.PRFSize = 1 << 40 },
		"ROB_pkru":   func(c *Config) { c.ROBPkruSize = 1 << 40 },
		"fetch":      func(c *Config) { c.FrontendDepth = 1 << 40 },
		"RAS":        func(c *Config) { c.RASEntries = 1 << 10 },
		"L3 lines":   func(c *Config) { c.Caches.L3.SizeB = 1 << 40 },
		"DTLB":       func(c *Config) { c.DTLB.Entries = 1 << 40 },
		"L2 sets":    func(c *Config) { c.Caches.L2.SizeB = 3 << 10 },
		"ITLB ways":  func(c *Config) { c.ITLB.Ways = 0 },
		"BTB pow2":   func(c *Config) { c.BTBEntries = 1000 },
		"mode range": func(c *Config) { c.Mode = Mode(len(policies)) },
		"level name": func(c *Config) { c.Caches.L1D.Name = "a b" },
		"same level": func(c *Config) { c.Caches.L1D.Name = "l2" },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := New(cfg, p); err == nil {
			t.Errorf("%s: config must be rejected", name)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeSerialized.String() != "serialized" ||
		ModeNonSecure.String() != "nonsecure" ||
		ModeSpecMPK.String() != "specmpk" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "mode9" {
		t.Fatal("unknown mode name")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Cycles: 100, Insts: 250, Branches: 10, Mispredicts: 2, Wrpkru: 5}
	if s.IPC() != 2.5 {
		t.Fatal("IPC")
	}
	if s.MispredictRate() != 0.2 {
		t.Fatal("mispredict rate")
	}
	if s.WrpkruPerKilo() != 20 {
		t.Fatal("wrpkru per kilo")
	}
	var z Stats
	if z.IPC() != 0 || z.MispredictRate() != 0 || z.WrpkruPerKilo() != 0 {
		t.Fatal("zero stats")
	}
}

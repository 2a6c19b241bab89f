package funcsim

import (
	"errors"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
)

func build(t *testing.T, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(0x10000)
	f(b)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, p *asm.Program) *Machine {
	t.Helper()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1_000_000, 1); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticLoop(t *testing.T) {
	// sum 1..10 = 55
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(isa.RegT0, 10).Movi(isa.RegT0+1, 0)
		f.Label("loop")
		f.Add(isa.RegT0+1, isa.RegT0+1, isa.RegT0)
		f.Addi(isa.RegT0, isa.RegT0, -1)
		f.Bne(isa.RegT0, isa.RegZero, "loop")
		f.Halt()
	})
	m := run(t, p)
	if got := m.Threads[0].Regs[isa.RegT0+1]; got != 55 {
		t.Fatalf("sum = %d", got)
	}
	if m.Stats.Branches != 10 || m.Stats.Taken != 9 {
		t.Fatalf("branch stats %+v", m.Stats)
	}
}

func TestAllALUOps(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(10, 12).Movi(11, 5)
		f.Op3(isa.OpAdd, 12, 10, 11)                              // 17
		f.Op3(isa.OpSub, 13, 10, 11)                              // 7
		f.Op3(isa.OpAnd, 14, 10, 11)                              // 4
		f.Op3(isa.OpOr, 15, 10, 11)                               // 13
		f.Op3(isa.OpXor, 16, 10, 11)                              // 9
		f.Op3(isa.OpShl, 17, 10, 11)                              // 384
		f.Op3(isa.OpShr, 18, 10, 11)                              // 0
		f.Op3(isa.OpMul, 19, 10, 11)                              // 60
		f.Op3(isa.OpDiv, 20, 10, 11)                              // 2
		f.Emit(isa.Inst{Op: isa.OpAndi, Rd: 21, Rs1: 10, Imm: 8}) // 8
		f.Emit(isa.Inst{Op: isa.OpOri, Rd: 22, Rs1: 10, Imm: 1})  // 13
		f.Emit(isa.Inst{Op: isa.OpXori, Rd: 23, Rs1: 10, Imm: 1}) // 13
		f.Shli(24, 10, 2)                                         // 48
		f.Shri(25, 10, 2)                                         // 3
		f.Op3(isa.OpDiv, 26, 10, isa.RegZero)                     // div by 0 -> all ones
		f.Halt()
	})
	m := run(t, p)
	want := map[int]uint64{12: 17, 13: 7, 14: 4, 15: 13, 16: 9, 17: 384, 18: 0,
		19: 60, 20: 2, 21: 8, 22: 13, 23: 13, 24: 48, 25: 3, 26: ^uint64(0)}
	for r, v := range want {
		if got := m.Threads[0].Regs[r]; got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestRegZeroImmutable(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(isa.RegZero, 99)
		f.Addi(10, isa.RegZero, 1)
		f.Halt()
	})
	m := run(t, p)
	if m.Threads[0].Regs[isa.RegZero] != 0 {
		t.Fatal("r0 must stay zero")
	}
	if m.Threads[0].Regs[10] != 1 {
		t.Fatal("r0 must read as zero")
	}
}

func TestMemoryAndCalls(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Region("heap", 0x20000000, mem.PageSize, mem.ProtRW, 0)
		b.InitReg(isa.RegGP, 0x20000000)
		f := b.Func("main")
		f.Movi(isa.RegA0, 21)
		f.Call("double")
		f.St(isa.RegA0, isa.RegGP, 0)
		f.Ld(isa.RegT0+5, isa.RegGP, 0)
		f.Sb(isa.RegT0+5, isa.RegGP, 100)
		f.Lb(isa.RegT0+6, isa.RegGP, 100)
		f.Halt()
		g := b.Func("double")
		g.Add(isa.RegA0, isa.RegA0, isa.RegA0)
		g.Ret()
	})
	m := run(t, p)
	regs := m.Threads[0].Regs
	if regs[isa.RegA0] != 42 || regs[isa.RegT0+5] != 42 || regs[isa.RegT0+6] != 42 {
		t.Fatalf("regs a0=%d t5=%d t6=%d", regs[isa.RegA0], regs[isa.RegT0+5], regs[isa.RegT0+6])
	}
	if m.Stats.Calls != 1 || m.Stats.Returns != 1 {
		t.Fatalf("call stats %+v", m.Stats)
	}
	v, _ := m.AS.ReadVirt64(0x20000000)
	if v != 42 {
		t.Fatalf("mem = %d", v)
	}
}

func TestWrpkruRdpkruSemantics(t *testing.T) {
	deny1 := uint64(mpk.AllowAll.WithKey(1, mpk.Perm{AD: true}))
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(isa.RegT0, int64(deny1))
		f.Wrpkru(isa.RegT0)
		f.Rdpkru(isa.RegT0 + 1)
		f.Halt()
	})
	m := run(t, p)
	if m.Threads[0].PKRU != mpk.PKRU(deny1) {
		t.Fatalf("PKRU = %v", m.Threads[0].PKRU)
	}
	if m.Threads[0].Regs[isa.RegT0+1] != deny1 {
		t.Fatal("rdpkru must read back the written value")
	}
	if m.Stats.Wrpkru != 1 || m.Stats.Rdpkru != 1 {
		t.Fatalf("stats %+v", m.Stats)
	}
	if m.Stats.WrpkruPerKilo() == 0 {
		t.Fatal("WrpkruPerKilo must be nonzero")
	}
}

func protectedProgram(t *testing.T, accessDisable bool, doWrite bool) *asm.Program {
	perm := mpk.Perm{WD: true}
	if accessDisable {
		perm = mpk.Perm{AD: true}
	}
	pkru := uint64(mpk.AllowAll.WithKey(1, perm))
	return build(t, func(b *asm.Builder) {
		b.Region("secret", 0x60000000, mem.PageSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(isa.RegT0, int64(pkru))
		f.Wrpkru(isa.RegT0)
		f.Movi(isa.RegT0+1, 0x60000000)
		if doWrite {
			f.St(isa.RegT0, isa.RegT0+1, 0)
		} else {
			f.Ld(isa.RegT0+2, isa.RegT0+1, 0)
		}
		f.Halt()
	})
}

func TestPkeyFaultOnLoad(t *testing.T) {
	m, err := New(protectedProgram(t, true, false))
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(1000, 1)
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultPkey || f.PKey != 1 {
		t.Fatalf("want pkey fault, got %v", err)
	}
	if m.Threads[0].Fault == nil {
		t.Fatal("thread must record its fault")
	}
}

func TestWDAllowsReadBlocksWrite(t *testing.T) {
	// Read under WD passes.
	m, err := New(protectedProgram(t, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1000, 1); err != nil {
		t.Fatalf("read under WD must pass: %v", err)
	}
	// Write under WD faults.
	m2, _ := New(protectedProgram(t, false, true))
	err = m2.Run(1000, 1)
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultPkey || f.Access != mem.Write {
		t.Fatalf("want pkey write fault, got %v", err)
	}
}

func TestFaultHandlerRetry(t *testing.T) {
	m, err := New(protectedProgram(t, true, false))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	m.FaultHandler = func(th *Thread, f *mem.Fault) mem.FaultAction {
		calls++
		th.PKRU = th.PKRU.WithKey(f.PKey, mpk.Perm{}) // grant access
		return mem.FaultRetry
	}
	if err := m.Run(1000, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("handler called %d times", calls)
	}
	if !m.Threads[0].Halted || m.Threads[0].Fault != nil {
		t.Fatal("thread should complete cleanly after retry")
	}
}

func TestFaultHandlerSkip(t *testing.T) {
	m, err := New(protectedProgram(t, true, false))
	if err != nil {
		t.Fatal(err)
	}
	m.FaultHandler = func(*Thread, *mem.Fault) mem.FaultAction { return mem.FaultSkip }
	if err := m.Run(1000, 1); err != nil {
		t.Fatal(err)
	}
	if m.Threads[0].Regs[isa.RegT0+2] != 0 {
		t.Fatal("skipped load must not write its destination")
	}
}

func TestBadPCFaults(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(isa.RegT0, 0xdead0000)
		f.CallIndirect(isa.RegT0, 0) // jump into the void
		f.Halt()
	})
	m, _ := New(p)
	err := m.Run(1000, 1)
	var f *mem.Fault
	if !errors.As(err, &f) || f.Access != mem.Exec {
		t.Fatalf("want exec fault, got %v", err)
	}
}

func TestInstLimit(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Label("spin")
		f.Jump("spin")
	})
	m, _ := New(p)
	if err := m.Run(100, 1); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	if m.Stats.Insts != 100 {
		t.Fatalf("insts = %d", m.Stats.Insts)
	}
}

func TestMultiThreadRoundRobin(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Region("heap", 0x20000000, mem.PageSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(isa.RegGP, 0x20000000)
		f.Movi(isa.RegT0, 1)
		f.St(isa.RegT0, isa.RegGP, 0)
		f.Halt()
		g := b.Func("worker")
		g.Movi(isa.RegGP, 0x20000000)
		g.Movi(isa.RegT0, 2)
		g.St(isa.RegT0, isa.RegGP, 8)
		g.Halt()
	})
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.AddThread(p.Symbols["worker"])
	if err := m.Run(1000, 2); err != nil {
		t.Fatal(err)
	}
	v0, _ := m.AS.ReadVirt64(0x20000000)
	v1, _ := m.AS.ReadVirt64(0x20000008)
	if v0 != 1 || v1 != 2 {
		t.Fatalf("thread writes: %d %d", v0, v1)
	}
	if m.Threads[1].ID != 1 || m.Threads[1].Insts == 0 {
		t.Fatal("thread bookkeeping")
	}
}

func TestPerThreadPKRUIsolated(t *testing.T) {
	deny := uint64(mpk.AllowAll.WithKey(2, mpk.Perm{AD: true}))
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Movi(isa.RegT0, int64(deny))
		f.Wrpkru(isa.RegT0)
		f.Halt()
		g := b.Func("worker")
		g.Rdpkru(isa.RegT0 + 1)
		g.Halt()
	})
	m, _ := New(p)
	m.AddThread(p.Symbols["worker"])
	if err := m.Run(1000, 1); err != nil {
		t.Fatal(err)
	}
	if m.Threads[0].PKRU == m.Threads[1].PKRU {
		t.Fatal("PKRU must be per-thread")
	}
	if m.Threads[1].Regs[isa.RegT0+1] != uint64(mpk.AllowAll) {
		t.Fatal("worker PKRU must be untouched")
	}
}

func TestOnInstHookAndDigest(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Region("heap", 0x20000000, mem.PageSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(isa.RegGP, 0x20000000)
		f.Movi(isa.RegT0, 7)
		f.St(isa.RegT0, isa.RegGP, 0)
		f.Halt()
	})
	m, _ := New(p)
	seen := 0
	m.OnInst = func(th *Thread, pc uint64, in isa.Inst) { seen++ }
	if err := m.Run(100, 1); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Fatalf("hook saw %d instructions", seen)
	}
	d1, err := m.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// A second identical run digests identically.
	m2, _ := New(p)
	if err := m2.Run(100, 1); err != nil {
		t.Fatal(err)
	}
	d2, _ := m2.Digest()
	if d1 != d2 {
		t.Fatal("digest must be deterministic")
	}
	// A different memory value changes the digest.
	if err := m2.AS.WriteVirt64(0x20000000, 8); err != nil {
		t.Fatal(err)
	}
	d3, _ := m2.Digest()
	if d3 == d1 {
		t.Fatal("digest must reflect region contents")
	}
}

func TestRdcycleMonotonic(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		f := b.Func("main")
		f.Rdcycle(10)
		f.Rdcycle(11)
		f.Halt()
	})
	m := run(t, p)
	if m.Threads[0].Regs[11] <= m.Threads[0].Regs[10] {
		t.Fatal("rdcycle must be monotonic")
	}
}

func TestClflushIsArchitecturalNop(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Region("heap", 0x20000000, mem.PageSize, mem.ProtRW, 0)
		f := b.Func("main")
		f.Movi(isa.RegGP, 0x20000000)
		f.Movi(isa.RegT0, 5)
		f.St(isa.RegT0, isa.RegGP, 0)
		f.Clflush(isa.RegGP, 0)
		f.Ld(isa.RegT0+1, isa.RegGP, 0)
		f.Halt()
	})
	m := run(t, p)
	if m.Threads[0].Regs[isa.RegT0+1] != 5 {
		t.Fatal("clflush must not change memory contents")
	}
}

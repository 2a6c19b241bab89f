package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/trace"
	"specmpk/internal/workload"
)

// lockstep runs p on a cycle-level machine under cfg until it halts, faults
// or retires maxInsts instructions, and steps the functional simulator once
// per retired instruction. It
// returns the first retire at which the two disagree — on the PC, on the
// value written to the destination register, on the bytes a store left at
// its address, or on PKRU after a WRPKRU — or a disagreement on how the run
// ended (the fault, or whether it halted).
func lockstep(cfg Config, p *asm.Program, maxInsts uint64) error {
	m, err := New(cfg, p)
	if err != nil {
		return err
	}
	defer m.Release()
	ref, err := funcsim.New(p)
	if err != nil {
		return err
	}
	th := ref.Threads[0]
	var retires uint64
	var diverged error
	m.OnTrace = func(r trace.Record) {
		if diverged != nil {
			return
		}
		retires++
		if err := retireAgrees(m, ref, th, r); err != nil {
			diverged = fmt.Errorf("retire %d (seq %d, pc %#x %v): %w", retires, r.Seq, r.PC, r.Inst, err)
		}
	}
	runErr := m.RunInsts(maxInsts, 30_000_000)
	switch {
	case diverged != nil:
		return diverged
	case m.Fault() != nil:
		var f *mem.Fault
		if err := ref.Step(th); !errors.As(err, &f) || *f != *m.Fault() {
			return fmt.Errorf("after %d retires: machine fault %v, funcsim %v", retires, m.Fault(), err)
		}
		return nil
	case m.Halted() != th.Halted:
		return fmt.Errorf("after %d retires: halted %v, funcsim halted %v", retires, m.Halted(), th.Halted)
	case runErr != nil:
		return runErr
	}
	return nil
}

// retireAgrees steps funcsim over the instruction the machine just retired
// and compares the architectural effects. Retirement has already updated the
// machine's AMT, written the store to memory and retired the WRPKRU when
// OnTrace fires.
func retireAgrees(m *Machine, ref *funcsim.Machine, th *funcsim.Thread, r trace.Record) error {
	if th.PC != r.PC {
		return fmt.Errorf("funcsim retires pc %#x", th.PC)
	}
	in := r.Inst
	addr := th.Reg(in.Rs1) + uint64(in.Imm)
	if err := ref.Step(th); err != nil {
		return fmt.Errorf("funcsim: %w", err)
	}
	switch {
	case in.Op == isa.OpRdcycle:
		// Each simulator reads its own clock: funcsim adopts the machine's.
		th.Regs[in.Rd] = m.ArchReg(int(in.Rd))
	case in.WritesReg():
		if got, want := m.ArchReg(int(in.Rd)), th.Reg(in.Rd); got != want {
			return fmt.Errorf("r%d = %#x, funcsim %#x", in.Rd, got, want)
		}
	case in.Op.IsStore():
		got, err := m.AS.ReadVirtBytes(addr, in.Op.MemBytes())
		if err != nil {
			return err
		}
		want, err := ref.AS.ReadVirtBytes(addr, in.Op.MemBytes())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("memory at %#x holds %x, funcsim %x", addr, got, want)
		}
	case in.Op == isa.OpWrpkru:
		if m.PKRU() != th.PKRU {
			return fmt.Errorf("PKRU = %#x, funcsim %#x", uint64(m.PKRU()), uint64(th.PKRU))
		}
	}
	return nil
}

// faultingProg stores to the heap, then stores to a write-disabled pkey
// region: the run ends on a precise pkey fault both simulators must name.
func faultingProg(t *testing.T) *asm.Program {
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(3, shadowBase)
		f.Movi(9, 0x1234)
		f.St(9, 4, 8)
		f.Movi(27, int64(pkruProtect))
		f.Wrpkru(27)
		f.Sb(9, 4, 3)
		f.St(9, 3, 16) // faults: key 1 write-disabled
		f.Halt()
	})
}

// TestLockstepRetire checks cycle-level and functional execution agree at
// every retire, under every policy: the random programs, the squash storm,
// a program ending on a pkey fault, each run to its end, and the first
// 10,000 retires of each catalogue workload. The final-digest tests see only
// the end state; this check names the first retire at which the machines
// part.
func TestLockstepRetire(t *testing.T) {
	const whole = ^uint64(0)
	type prog struct {
		name     string
		p        *asm.Program
		maxInsts uint64
	}
	var progs []prog
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, prog{fmt.Sprintf("random-%d", seed), genRandom(t, seed), whole})
	}
	progs = append(progs, prog{"storm", stormProg(t), whole}, prog{"fault", faultingProg(t), whole})
	for _, w := range workload.Catalog() {
		p, err := w.Build(workload.VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{w.Name, p, 10_000})
	}
	for _, pr := range progs {
		for _, mode := range allModes() {
			cfg := DefaultConfig()
			cfg.Mode = mode
			if err := lockstep(cfg, pr.p, pr.maxInsts); err != nil {
				t.Errorf("%s %v: %v", pr.name, mode, err)
			}
		}
	}
}

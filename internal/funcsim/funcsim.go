// Package funcsim is the in-order functional reference interpreter for the
// repro ISA. It executes architecturally — no pipeline, no speculation — and
// therefore defines the correct final state every cycle-level
// microarchitecture in internal/pipeline must reproduce (the central
// correctness oracle of this repository).
//
// It also supports multiple threads with per-thread PKRU registers and a
// protection-fault hook, which is all the Kard data-race use case (§IX-D)
// and the SimPoint profiler need.
package funcsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
)

// Thread is one architectural execution context.
type Thread struct {
	ID     int
	PC     uint64
	Regs   [isa.NumRegs]uint64
	PKRU   mpk.PKRU
	Halted bool
	// Fault holds the terminal fault when the thread stopped on one.
	Fault *mem.Fault
	// Insts counts instructions retired by this thread.
	Insts uint64
}

// Stats aggregates dynamic instruction mix over all threads.
type Stats struct {
	Insts    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Taken    uint64
	Calls    uint64
	Returns  uint64
	Wrpkru   uint64
	Rdpkru   uint64
	Faults   uint64
}

// WrpkruPerKilo returns dynamic WRPKRU instructions per 1000 instructions —
// the Figure 10 metric.
func (s Stats) WrpkruPerKilo() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.Wrpkru) / float64(s.Insts)
}

// Machine executes a loaded program functionally.
type Machine struct {
	Prog *asm.Program
	AS   *mem.AddressSpace

	Threads []*Thread
	Stats   Stats

	// OnInst, when set, observes every retired instruction (SimPoint
	// profiling, tracing). pc is the instruction's address.
	OnInst func(t *Thread, pc uint64, in isa.Inst)
	// OnStore, when set, observes every architecturally completed store with
	// its virtual address (checkpoint dirty-page tracking). It fires after
	// the bytes land, only for stores that did not fault.
	OnStore func(t *Thread, vaddr uint64)
	// FaultHandler, when set, is consulted on pkey/protection/page faults.
	FaultHandler func(t *Thread, f *mem.Fault) mem.FaultAction

	// memo translates the loads' and stores' addresses through AS.
	memo mem.Memo
}

// New loads prog into a fresh address space and creates thread 0 at the
// entry point with the program's initial register file.
func New(prog *asm.Program) (*Machine, error) {
	as, err := prog.Load()
	if err != nil {
		return nil, err
	}
	m := &Machine{Prog: prog, AS: as}
	m.AddThread(prog.Entry)
	return m, nil
}

// AddThread creates a new thread starting at pc, seeded with the program's
// initial registers, and returns it.
func (m *Machine) AddThread(pc uint64) *Thread {
	t := &Thread{ID: len(m.Threads), PC: pc, PKRU: mpk.AllowAll}
	for r, v := range m.Prog.InitRegs {
		t.Regs[r] = v
	}
	m.Threads = append(m.Threads, t)
	return t
}

// ErrLimit is returned by Run when the instruction budget is exhausted
// before every thread halts.
var ErrLimit = errors.New("funcsim: instruction limit reached")

// Run interleaves all threads round-robin (quantum steps each) until every
// thread halts or limit instructions have retired in total. A fault with no
// handler (or a mem.FaultStop verdict) stops the run and returns the fault.
// A lone live thread has no one to take turns with, so it gets the whole
// remaining budget in one call.
func (m *Machine) Run(limit uint64, quantum int) error {
	if quantum <= 0 {
		quantum = 1
	}
	for {
		live, lone := 0, (*Thread)(nil)
		for _, t := range m.Threads {
			if !t.Halted {
				live, lone = live+1, t
			}
		}
		switch live {
		case 0:
			return nil
		case 1:
			if err := m.run(lone, math.MaxUint64, limit); err != nil {
				return err
			}
			continue
		}
		for _, t := range m.Threads {
			if !t.Halted {
				if err := m.run(t, uint64(quantum), limit); err != nil {
					return err
				}
			}
		}
	}
}

// Reg returns register r's architectural value; RegZero reads 0.
func (t *Thread) Reg(r uint8) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return t.Regs[r]
}

func (m *Machine) write(t *Thread, r uint8, v uint64) {
	if r != isa.RegZero {
		t.Regs[r] = v
	}
}

// Step retires one instruction on thread t.
func (m *Machine) Step(t *Thread) error { return m.run(t, 1, math.MaxUint64) }

// run is the interpreter: it steps thread t up to n times and stops early
// when t halts or on an error. A step retires an instruction, skips a
// faulting one (which counts as retired) or retries it (which does not).
// Before every step it returns ErrLimit if limit instructions have retired
// in total. Loads and stores translate through the machine's memo. The PC
// lives in a local between steps; t.PC holds it whenever a hook or the
// fault handler runs and when run returns.
func (m *Machine) run(t *Thread, n, limit uint64) (err error) {
	code, base := m.Prog.Insts, m.Prog.CodeBase
	pc := t.PC
	for ; n > 0 && !t.Halted; n-- {
		if m.Stats.Insts >= limit {
			err = ErrLimit
			break
		}
		// asm.Program.InstAt, with the program's code in locals.
		i := (pc - base) / isa.InstBytes
		if (pc-base)%isa.InstBytes != 0 || i >= uint64(len(code)) {
			if err = m.fault(t, &mem.Fault{Kind: mem.FaultPage, Addr: pc, Access: mem.Exec}, pc); err != nil {
				return err
			}
			pc = t.PC
			continue
		}
		in := code[i]
		next := pc + isa.InstBytes

		rs1 := t.Reg(in.Rs1)
		rs2 := t.Reg(in.Rs2)

		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			t.Halted = true
		case isa.OpAdd:
			m.write(t, in.Rd, rs1+rs2)
		case isa.OpSub:
			m.write(t, in.Rd, rs1-rs2)
		case isa.OpAnd:
			m.write(t, in.Rd, rs1&rs2)
		case isa.OpOr:
			m.write(t, in.Rd, rs1|rs2)
		case isa.OpXor:
			m.write(t, in.Rd, rs1^rs2)
		case isa.OpShl:
			m.write(t, in.Rd, rs1<<(rs2&63))
		case isa.OpShr:
			m.write(t, in.Rd, rs1>>(rs2&63))
		case isa.OpMul:
			m.write(t, in.Rd, rs1*rs2)
		case isa.OpDiv:
			if rs2 == 0 {
				m.write(t, in.Rd, ^uint64(0))
			} else {
				m.write(t, in.Rd, rs1/rs2)
			}
		case isa.OpAddi:
			m.write(t, in.Rd, rs1+uint64(in.Imm))
		case isa.OpAndi:
			m.write(t, in.Rd, rs1&uint64(in.Imm))
		case isa.OpOri:
			m.write(t, in.Rd, rs1|uint64(in.Imm))
		case isa.OpXori:
			m.write(t, in.Rd, rs1^uint64(in.Imm))
		case isa.OpShli:
			m.write(t, in.Rd, rs1<<(uint64(in.Imm)&63))
		case isa.OpShri:
			m.write(t, in.Rd, rs1>>(uint64(in.Imm)&63))
		case isa.OpMovi:
			m.write(t, in.Rd, uint64(in.Imm))
		case isa.OpLd, isa.OpLb:
			m.Stats.Loads++
			v, f := m.memo.Load(m.AS, rs1+uint64(in.Imm), accessBytes(in.Op), t.PKRU)
			if f != nil {
				if err = m.fault(t, f, pc); err != nil {
					return err
				}
				pc = t.PC
				continue
			}
			m.write(t, in.Rd, v)
		case isa.OpSt, isa.OpSb:
			m.Stats.Stores++
			vaddr := rs1 + uint64(in.Imm)
			if f := m.memo.Store(m.AS, vaddr, accessBytes(in.Op), rs2, t.PKRU); f != nil {
				if err = m.fault(t, f, pc); err != nil {
					return err
				}
				pc = t.PC
				continue
			}
			if m.OnStore != nil {
				t.PC = pc
				m.OnStore(t, vaddr)
			}
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			m.Stats.Branches++
			if BranchTaken(in.Op, rs1, rs2) {
				m.Stats.Taken++
				next = uint64(in.Imm)
			}
		case isa.OpJal:
			if in.Rd != isa.RegZero {
				m.Stats.Calls++
			}
			m.write(t, in.Rd, next)
			next = uint64(in.Imm)
		case isa.OpJalr:
			if in.IsReturn() {
				m.Stats.Returns++
			} else if in.Rd != isa.RegZero {
				m.Stats.Calls++
			}
			target := rs1 + uint64(in.Imm)
			m.write(t, in.Rd, next)
			next = target
		case isa.OpWrpkru:
			m.Stats.Wrpkru++
			t.PKRU = mpk.PKRU(rs1)
		case isa.OpRdpkru:
			m.Stats.Rdpkru++
			m.write(t, in.Rd, uint64(t.PKRU))
		case isa.OpClflush:
			// Architecturally a no-op here; the cycle simulators model the
			// cache eviction.
		case isa.OpRdcycle:
			// The functional machine has no clock; expose retired-instruction
			// count, which is monotonic, as the timebase.
			m.write(t, in.Rd, m.Stats.Insts)
		default:
			t.PC = pc
			return fmt.Errorf("funcsim: unimplemented opcode %v at 0x%x", in.Op, pc)
		}

		m.Stats.Insts++
		t.Insts++
		if m.OnInst != nil {
			t.PC = pc
			m.OnInst(t, pc, in)
			if t.Halted {
				pc = t.PC
			}
		}
		if !t.Halted {
			pc = next
		}
	}
	t.PC = pc
	return err
}

// accessBytes is the width of load or store op: a word, or one byte for
// OpLb and OpSb.
func accessBytes(op isa.Op) int {
	if op == isa.OpLb || op == isa.OpSb {
		return 1
	}
	return 8
}

// BranchTaken reports whether conditional branch op is taken on source
// values a (rs1) and b (rs2).
func BranchTaken(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	}
	return false
}

func (m *Machine) fault(t *Thread, f *mem.Fault, pc uint64) error {
	m.Stats.Faults++
	t.PC = pc
	if m.FaultHandler != nil {
		switch m.FaultHandler(t, f) {
		case mem.FaultRetry:
			t.PC = pc
			return nil
		case mem.FaultSkip:
			m.Stats.Insts++
			t.Insts++
			t.PC = pc + isa.InstBytes
			return nil
		}
	}
	t.Halted = true
	t.Fault = f
	return f
}

// DigestState hashes a register file plus the contents of the given regions.
// The pipeline equivalence tests compare this digest between the functional
// machine and each cycle-level microarchitecture.
func DigestState(regs [isa.NumRegs]uint64, as *mem.AddressSpace, regions []asm.Region) (uint64, error) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range regs {
		put64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range regions {
		b, err := as.ReadVirtBytes(r.Base, int(r.Size))
		if err != nil {
			return 0, err
		}
		h.Write(b)
	}
	return h.Sum64(), nil
}

// Digest hashes thread 0's registers and every program region.
func (m *Machine) Digest() (uint64, error) {
	return DigestState(m.Threads[0].Regs, m.AS, m.Prog.Regions)
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

package funcsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
)

// The fuzz programs' data: five pages from fuzzBase — data with a present
// frame, data whose frame is absent until written, a read-only page, a page
// under key 1, and an unmapped page.
const (
	fuzzBase  = 0x20000000
	fuzzPages = 5
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	i    int
}

func (z *fuzzBytes) next() byte {
	if z.i >= len(z.data) {
		return 0
	}
	z.i++
	return z.data[z.i-1]
}

// fuzzScenario is one FuzzRun input decoded: a program, where its threads
// start, the quantum, the instruction limit, and the bytes that steer the
// fault handler.
type fuzzScenario struct {
	prog    *asm.Program
	starts  []uint64
	quantum int
	limit   uint64
	handler []byte
}

// decodeFuzz builds a scenario from data. Instructions are ALU ops, loads
// and stores (word and byte, through a page base or a data register, some
// across a page boundary) on all five pages, WRPKRU of three PKRU values or
// a data register, branches to any instruction, calls of a leaf function,
// indirect jumps through data registers, RDCYCLE and RDPKRU.
func decodeFuzz(data []byte) (*fuzzScenario, error) {
	z := &fuzzBytes{data: data}
	b := asm.NewBuilder(0x10000)
	b.Region("data", fuzzBase, mem.PageSize, mem.ProtRW, 0)
	b.Data(fuzzBase, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	b.Region("fresh", fuzzBase+mem.PageSize, mem.PageSize, mem.ProtRW, 0)
	b.Region("ro", fuzzBase+2*mem.PageSize, mem.PageSize, mem.ProtRead, 0)
	b.Region("keyed", fuzzBase+3*mem.PageSize, mem.PageSize, mem.ProtRW, 1)
	b.InitReg(4, fuzzBase)
	b.InitReg(10, fuzzBase+8)
	b.InitReg(11, fuzzBase+3*mem.PageSize)
	b.InitReg(12, 7)
	b.InitReg(13, fuzzBase+4*mem.PageSize-4)
	b.InitReg(20, uint64(mpk.AllowAll))
	b.InitReg(21, uint64(mpk.AllowAll.WithKey(1, mpk.Perm{AD: true})))
	b.InitReg(22, uint64(mpk.AllowAll.WithKey(1, mpk.Perm{WD: true})))

	reg := func() uint8 { return 10 + z.next()%4 }
	addr := func() (uint8, int64) {
		switch sel := z.next(); sel % 4 {
		case 0:
			return reg(), int64(z.next() % 16)
		case 1:
			return 4, int64(sel/4%fuzzPages)*mem.PageSize + mem.PageSize - 4 // crosses into the next page
		}
		return 4, int64(z.next()%fuzzPages)*mem.PageSize + 8*int64(z.next()%64)
	}
	f := b.Func("main")
	n := 4 + int(z.next()%40)
	for k := 0; k < n; k++ {
		f.Label(fmt.Sprint("L", k))
		switch z.next() % 16 {
		case 0:
			f.Add(reg(), reg(), reg())
		case 1:
			f.Addi(reg(), reg(), int64(int8(z.next())))
		case 2:
			f.Mul(reg(), reg(), reg())
		case 3:
			f.Movi(reg(), fuzzBase+int64(z.next())*64)
		case 4, 5:
			rs1, imm := addr()
			if z.next()%2 == 0 {
				f.Ld(reg(), rs1, imm)
			} else {
				f.Lb(reg(), rs1, imm)
			}
		case 6, 7:
			rs1, imm := addr()
			if z.next()%2 == 0 {
				f.St(reg(), rs1, imm)
			} else {
				f.Sb(reg(), rs1, imm)
			}
		case 8:
			if r := z.next() % 4; r < 3 {
				f.Wrpkru(20 + r)
			} else {
				f.Wrpkru(reg())
			}
		case 9, 10:
			op := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}[z.next()%4]
			f.Branch(op, reg(), reg(), fmt.Sprint("L", int(z.next())%n))
		case 11:
			f.Call("leaf")
		case 12:
			f.CallIndirect(reg(), 0)
		case 13:
			f.Rdcycle(reg())
		case 14:
			f.Rdpkru(reg())
		case 15:
			f.Jump(fmt.Sprint("L", int(z.next())%n))
		}
	}
	f.Halt()
	g := b.Func("leaf")
	g.Addi(12, 12, 1)
	g.St(12, 4, 16)
	g.Ret()
	prog, err := b.Link()
	if err != nil {
		return nil, err
	}
	s := &fuzzScenario{prog: prog, quantum: 1 + int(z.next()%4), limit: 200 + uint64(z.next())*4}
	s.starts = []uint64{prog.Entry}
	for k := int(z.next() % 3); k > 0; k-- {
		s.starts = append(s.starts, prog.Entry+uint64(int(z.next())%n)*isa.InstBytes)
	}
	for k := 0; k < 8; k++ {
		s.handler = append(s.handler, z.next())
	}
	return s, nil
}

// fuzzRun is one run of a scenario: its machine and everything its hooks saw.
type fuzzRun struct {
	m   *Machine
	log []string
	err error
}

// run builds the scenario's machine with logging hooks and drives it with
// drive. The fault handler's verdict depends only on how many calls came
// before and the fault: on a data fault it may re-key the faulting page (or
// another) with PkeyMprotect and retry, or write the absent-frame page with
// WriteVirt64 and skip, or skip, or stop; an exec fault skips or stops.
// After 64 calls it stops, so a retry loop ends.
func (s *fuzzScenario) run(t *testing.T, drive func(*Machine) error) *fuzzRun {
	m, err := New(s.prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range s.starts[1:] {
		m.AddThread(pc)
	}
	r := &fuzzRun{m: m}
	m.OnInst = func(th *Thread, pc uint64, in isa.Inst) {
		r.log = append(r.log, fmt.Sprintf("inst t%d %#x %v insts=%d", th.ID, pc, in, m.Stats.Insts))
	}
	m.OnStore = func(th *Thread, vaddr uint64) {
		r.log = append(r.log, fmt.Sprintf("store t%d %#x", th.ID, vaddr))
	}
	calls := 0
	m.FaultHandler = func(th *Thread, f *mem.Fault) mem.FaultAction {
		r.log = append(r.log, fmt.Sprintf("fault t%d pc=%#x %v", th.ID, th.PC, f))
		calls++
		hb := s.handler[calls%len(s.handler)]
		switch {
		case calls > 64:
			return mem.FaultStop
		case f.Access == mem.Exec:
			if hb%2 == 0 {
				return mem.FaultSkip
			}
			return mem.FaultStop
		}
		switch hb % 5 {
		case 0, 1:
			page := f.Addr &^ (mem.PageSize - 1)
			if hb%5 == 1 {
				page = fuzzBase + uint64(hb/5%fuzzPages)*mem.PageSize
			}
			prot := mem.ProtRW
			if hb&0x80 != 0 {
				prot = mem.ProtRead
			}
			if err := m.AS.PkeyMprotect(page, mem.PageSize, prot, int(hb>>5&1)); err != nil {
				return mem.FaultSkip
			}
			return mem.FaultRetry
		case 2:
			m.AS.WriteVirt64(fuzzBase+mem.PageSize+8*uint64(hb%64), uint64(calls)<<32|uint64(hb))
			return mem.FaultSkip
		case 3:
			return mem.FaultSkip
		}
		return mem.FaultStop
	}
	r.err = drive(m)
	return r
}

// memDigest hashes the frame count and every mapped fuzz page's bytes, read
// through the page table.
func memDigest(m *Machine) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "frames %d\n", m.AS.Phys.FrameCount())
	for p := uint64(0); p < fuzzPages; p++ {
		pte, ok := m.AS.Lookup(fuzzBase + p*mem.PageSize)
		fmt.Fprintf(h, "page %d %+v %v\n", p, pte, ok)
		if ok {
			h.Write(m.AS.Phys.ReadBytes(pte.PPN<<mem.PageBits, mem.PageSize))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// stepRun is Run's reference: Step one instruction at a time in the
// round-robin order Run keeps, quantum steps a turn, checking the limit
// before every step, with the memo flushed before each one.
func stepRun(m *Machine, limit uint64, quantum int) error {
	for {
		live := false
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live = true
			for q := 0; q < quantum && !t.Halted; q++ {
				if m.Stats.Insts >= limit {
					return ErrLimit
				}
				m.flushMemo()
				if err := m.Step(t); err != nil {
					return err
				}
			}
		}
		if !live {
			return nil
		}
	}
}

// FuzzRun pins Run's batched loop and the translation memo against
// single-stepping with no memo: 1–3 threads at quantum 1–4 running a
// program decoded from the input (decodeFuzz) under a fault handler that
// re-keys pages and creates frames (fuzzScenario.run). Both runs must end
// the same way with the same Stats, thread states and memory, and their
// OnInst, OnStore and fault-handler calls must be the same sequence.
func FuzzRun(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{20, 4, 1, 2, 3, 6, 2, 0, 3, 1, 9, 1, 2, 5, 8, 3, 11, 12, 13, 14, 15, 10, 0, 1, 2},
		{39, 8, 0, 9, 2, 3, 7, 5, 1, 4, 3, 0, 10, 2, 2, 2, 12, 1, 15, 3, 3, 255, 2, 7, 9},
		// A memo that ignores the page table's generation: the fault
		// handler makes the keyed page writable under key 0 after a pkey
		// fault on a store, and the retry must see the new key.
		[]byte("07!00819"),
		// A memo that remembers an absent frame: a load through the fresh
		// page sees its frame absent, the fault handler's WriteVirt64
		// creates the frame, and a later load must read what it wrote.
		[]byte("07100$11"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeFuzz(data)
		if err != nil {
			t.Skip(err)
		}
		got := s.run(t, func(m *Machine) error { return m.Run(s.limit, s.quantum) })
		want := s.run(t, func(m *Machine) error { return stepRun(m, s.limit, s.quantum) })
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) || errors.Is(got.err, ErrLimit) != errors.Is(want.err, ErrLimit) {
			t.Fatalf("Run returned %v, single-stepping %v", got.err, want.err)
		}
		for i := 0; i < max(len(got.log), len(want.log)); i++ {
			var g, w string
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			if g != w {
				t.Fatalf("hook call %d: Run saw %q, single-stepping %q", i, g, w)
			}
		}
		if got.m.Stats != want.m.Stats {
			t.Fatalf("Stats: Run %+v, single-stepping %+v", got.m.Stats, want.m.Stats)
		}
		for i, th := range got.m.Threads {
			if !reflect.DeepEqual(th, want.m.Threads[i]) {
				t.Fatalf("thread %d: Run %+v, single-stepping %+v", i, th, want.m.Threads[i])
			}
		}
		if memDigest(got.m) != memDigest(want.m) {
			t.Fatal("memory differs")
		}
	})
}

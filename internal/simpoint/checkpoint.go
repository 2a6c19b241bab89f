// Architectural checkpoints: restorable snapshots of a program at an
// interval boundary, captured in one functional fast-forward pass and
// restorable into any detailed machine configuration.
//
// A checkpoint carries three layers:
//
//   - Architectural state: the register file, PKRU, and resume PC.
//   - A touched-memory delta: every page the program wrote before the
//     boundary, so a pristine program load plus the delta reproduces the
//     exact memory image (pages the program only read are already correct
//     in a fresh load).
//   - Microarchitectural warm-up state: the call stack for the RAS plus a
//     bounded log of the last WarmInsts retired instructions' footprint
//     (fetch addresses, branch outcomes, indirect targets, memory
//     accesses), replayed into a fresh machine's caches, TLBs and
//     predictors before detailed simulation starts.
//
// This replaces the previous live-warming flow (which interleaved the
// functional fast-forward with training one specific detailed machine): a
// checkpoint is captured once per program and then restored once per
// policy/config, which is what lets the simulation server profile once and
// fan representative intervals out across its worker pool.
package simpoint

import (
	"fmt"
	"sort"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/pipeline"
)

// DefaultWarmInsts is the warm-up log depth used when Config.WarmInsts is
// zero: enough history to repopulate the L1s, TLBs and the useful fraction
// of the direction predictor for the interval lengths this repo simulates.
const DefaultWarmInsts = 16384

// rasShadowMax bounds the call stack captured for RAS warming. Deeper
// frames than any RAS the pipeline configures would wrap the circular stack
// anyway, so there is no point carrying them.
const rasShadowMax = 64

// Warm-record kinds. Every record warms the I-side (ITLB + L1I) at its PC;
// the kind says what else it replays.
const (
	warmPlain    uint8 = iota // fetch footprint only
	warmBranch                // conditional branch: trains TAGE with Taken
	warmIndirect              // non-return indirect jump: trains the BTB with Addr
	warmLoad                  // data read at Addr: DTLB + L1D
	warmStore                 // data write at Addr: DTLB + L1D
)

// WarmRecord is one retired instruction's microarchitectural footprint in a
// checkpoint's warm-up log.
type WarmRecord struct {
	PC    uint64
	Addr  uint64 // branch/jump target or memory virtual address
	Kind  uint8
	Taken bool
}

// Checkpoint is a restorable snapshot of a program at an interval boundary.
type Checkpoint struct {
	// Index is the interval whose start this checkpoint sits at.
	Index uint64
	// Insts is the number of instructions retired before the boundary
	// (Index * IntervalLen for full intervals).
	Insts uint64

	// Architectural state.
	PC   uint64
	Regs [isa.NumRegs]uint64
	PKRU mpk.PKRU

	// Pages is the touched-memory delta: virtual page number -> page bytes
	// at the boundary, for every page written since program load.
	Pages map[uint64][]byte

	// Warm is the warm-up log, oldest record first.
	Warm []WarmRecord
	// RAS is the live call stack (return addresses), oldest frame first.
	RAS []uint64
}

// capturer accumulates checkpoint inputs while the functional machine runs.
type capturer struct {
	dirty map[uint64]struct{} // written virtual page numbers, cumulative
	ring  []WarmRecord        // warm-up log ring
	pos   int                 // next write position
	n     int                 // records written (saturates at len(ring))
	ras   []uint64            // shadow call stack
}

func newCapturer(warmInsts uint64) *capturer {
	if warmInsts == 0 {
		warmInsts = DefaultWarmInsts
	}
	return &capturer{
		dirty: make(map[uint64]struct{}),
		ring:  make([]WarmRecord, warmInsts),
	}
}

// onStore is the funcsim store hook: record the written page.
func (c *capturer) onStore(_ *funcsim.Thread, vaddr uint64) {
	c.dirty[vaddr>>mem.PageBits] = struct{}{}
}

// onInst is the funcsim retirement hook: append one warm record and keep the
// shadow call stack current. It relies on the hook firing after execution:
// branches and stores never write registers, so their operands are still
// recomputable; the cases where an output clobbers an input (a load or an
// indirect jump with Rd == Rs1) degrade to a fetch-only record.
func (c *capturer) onInst(t *funcsim.Thread, pc uint64, in isa.Inst) {
	rec := WarmRecord{PC: pc, Kind: warmPlain}
	switch {
	case in.Op.IsCondBranch():
		rec.Kind = warmBranch
		rec.Taken = funcsim.BranchTaken(in.Op, t.Reg(in.Rs1), t.Reg(in.Rs2))
	case in.Op == isa.OpJal:
		if in.Rd != isa.RegZero {
			c.push(pc + isa.InstBytes)
		}
	case in.Op == isa.OpJalr:
		switch {
		case in.IsReturn():
			if len(c.ras) > 0 {
				c.ras = c.ras[:len(c.ras)-1]
			}
		case in.Rd != isa.RegZero:
			c.push(pc + isa.InstBytes)
			fallthrough
		default:
			if in.Rd != in.Rs1 {
				rec.Kind = warmIndirect
				rec.Addr = t.Reg(in.Rs1) + uint64(in.Imm)
			}
		}
	case in.Op.IsStore():
		rec.Kind = warmStore
		rec.Addr = t.Reg(in.Rs1) + uint64(in.Imm)
	case in.Op.IsLoad() && in.Rd != in.Rs1:
		rec.Kind = warmLoad
		rec.Addr = t.Reg(in.Rs1) + uint64(in.Imm)
	}
	c.ring[c.pos] = rec
	c.pos++
	if c.pos == len(c.ring) {
		c.pos = 0
	}
	if c.n < len(c.ring) {
		c.n++
	}
}

func (c *capturer) push(retAddr uint64) {
	c.ras = append(c.ras, retAddr)
	// Compact lazily so the common path stays an append.
	if len(c.ras) > 2*rasShadowMax {
		c.ras = append(c.ras[:0:0], c.ras[len(c.ras)-rasShadowMax:]...)
	}
}

// snapshot freezes the capturer's state into a checkpoint for the interval
// starting at the machine's current position.
func (c *capturer) snapshot(ff *funcsim.Machine, index uint64) *Checkpoint {
	th := ff.Threads[0]
	cp := &Checkpoint{
		Index: index,
		Insts: ff.Stats.Insts,
		PC:    th.PC,
		Regs:  th.Regs,
		PKRU:  th.PKRU,
		Pages: make(map[uint64][]byte, len(c.dirty)),
	}
	for vpn := range c.dirty {
		pte, ok := ff.AS.Lookup(vpn << mem.PageBits)
		if !ok {
			continue // unmapped after the write; nothing to restore
		}
		cp.Pages[vpn] = ff.AS.Phys.ReadBytes(pte.PPN<<mem.PageBits, mem.PageSize)
	}
	// Unroll the ring chronologically.
	cp.Warm = make([]WarmRecord, 0, c.n)
	start := c.pos - c.n
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.n; i++ {
		cp.Warm = append(cp.Warm, c.ring[(start+i)%len(c.ring)])
	}
	ras := c.ras
	if len(ras) > rasShadowMax {
		ras = ras[len(ras)-rasShadowMax:]
	}
	cp.RAS = append([]uint64(nil), ras...)
	return cp
}

// CaptureCheckpoints fast-forwards prog functionally and captures one
// checkpoint at the start of each requested interval (indices in units of
// cfg.IntervalLen), all in a single pass. The returned slice is aligned with
// indices; duplicate indices share one capture.
func CaptureCheckpoints(prog *asm.Program, cfg Config, indices []uint64) ([]*Checkpoint, error) {
	ff, err := funcsim.New(prog)
	if err != nil {
		return nil, err
	}
	cpt := newCapturer(cfg.WarmInsts)
	ff.OnInst = cpt.onInst
	ff.OnStore = cpt.onStore

	sorted := append([]uint64(nil), indices...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	byIndex := make(map[uint64]*Checkpoint, len(sorted))
	for _, idx := range sorted {
		if _, ok := byIndex[idx]; ok {
			continue
		}
		target := idx * cfg.IntervalLen
		if target > ff.Stats.Insts {
			if err := ff.Run(target, 1); err != nil && err != funcsim.ErrLimit {
				return nil, err
			}
		}
		if ff.Threads[0].Halted || ff.Stats.Insts < target {
			return nil, fmt.Errorf("simpoint: checkpoint %d (inst %d) beyond program end (%d insts)",
				idx, target, ff.Stats.Insts)
		}
		byIndex[idx] = cpt.snapshot(ff, idx)
	}
	out := make([]*Checkpoint, len(indices))
	for i, idx := range indices {
		out[i] = byIndex[idx]
	}
	return out, nil
}

// NewMachine builds a detailed machine warm-started from the checkpoint: a
// pristine program load patched with the touched-memory delta, the
// architectural state installed, the RAS seeded, and the warm-up log
// replayed into the caches, TLBs and branch predictors. The machine is
// independent of every other restore — checkpoints are immutable and safely
// shared across concurrent restores.
func (c *Checkpoint) NewMachine(mcfg pipeline.Config, prog *asm.Program) (*pipeline.Machine, error) {
	as, err := prog.Load()
	if err != nil {
		return nil, err
	}
	if err := c.patchPages(as); err != nil {
		return nil, err
	}
	regs := c.Regs
	m, err := pipeline.NewWithState(mcfg, prog, as, &regs, c.PKRU, c.PC)
	if err != nil {
		return nil, err
	}
	m.WarmRAS(c.RAS)
	c.replayWarm(m, as)
	return m, nil
}

// patchPages applies the touched-memory delta onto a freshly loaded address
// space, reproducing the exact memory image at the boundary. It writes
// through the physical backing (page tables are static at runtime — the ISA
// has no mapping operations — so a fresh load maps the same pages).
func (c *Checkpoint) patchPages(as *mem.AddressSpace) error {
	for vpn, b := range c.Pages {
		pte, ok := as.Lookup(vpn << mem.PageBits)
		if !ok {
			return fmt.Errorf("simpoint: checkpoint page 0x%x not mapped in a fresh load", vpn<<mem.PageBits)
		}
		as.Phys.WriteBytes(pte.PPN<<mem.PageBits, b)
	}
	return nil
}

// replayWarm trains the machine's I-side (ITLB, L1I), D-side (DTLB, L1D)
// and branch predictors from the warm-up log — the same footprint the old
// live warmer applied, now decoupled from the fast-forward pass.
func (c *Checkpoint) replayWarm(m *pipeline.Machine, as *mem.AddressSpace) {
	tage, btb := m.Predictors()
	for _, rec := range c.Warm {
		if ipaddr, ipte, err := as.Translate(rec.PC, mem.Exec); err == nil {
			if _, hit := m.ITLB.Lookup(rec.PC >> mem.PageBits); !hit {
				m.ITLB.Fill(rec.PC>>mem.PageBits, ipte)
			}
			m.Hier.FetchLatency(ipaddr)
		}
		switch rec.Kind {
		case warmBranch:
			_, st := tage.Predict(rec.PC)
			tage.SpeculativeUpdate(rec.Taken)
			tage.Update(rec.PC, st, rec.Taken)
		case warmIndirect:
			btb.Update(rec.PC, rec.Addr)
		case warmLoad, warmStore:
			acc := mem.Read
			if rec.Kind == warmStore {
				acc = mem.Write
			}
			if paddr, pte, err := as.Translate(rec.Addr, acc); err == nil {
				if _, hit := m.DTLB.Lookup(rec.Addr >> mem.PageBits); !hit {
					m.DTLB.Fill(rec.Addr>>mem.PageBits, pte)
				}
				m.Hier.L1D.Access(paddr, rec.Kind == warmStore)
			}
		}
	}
}

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
//     in a fresh load). Each page is held as its runs of nonzero words.
//   - Microarchitectural warm-up state: the call stack for the RAS plus a
//     bounded log of the last WarmInsts retired instructions' footprint
//     (fetch addresses, branch outcomes, indirect targets, memory
//     accesses), delta-encoded, and replayed into a fresh machine's
//     caches, TLBs and predictors before detailed simulation starts.
//
// This replaces the previous live-warming flow (which interleaved the
// functional fast-forward with training one specific detailed machine): a
// checkpoint is captured once per program and then restored once per
// policy/config, which is what lets the simulation server profile once and
// fan representative intervals out across its worker pool.
package simpoint

import (
	"bytes"
	"fmt"
	"slices"
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

// warmRecord is one retired instruction's microarchitectural footprint, the
// unit of a checkpoint's warm-up log. Only indirect, load and store records
// carry an address (carriesAddr).
type warmRecord struct {
	pc    uint64
	addr  uint64 // indirect-jump target or memory virtual address
	kind  uint8
	taken bool
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

	// The touched-memory delta: every page written since program load, in
	// virtual page order. pageData holds each page's encodePage runs back
	// to back; pages[i] names page i and where its runs end.
	pages    []pageRef
	pageData []byte

	// warm is the warm-up log, oldest record first, as warmEncoder wrote
	// it; warmN is its record count.
	warm  []byte
	warmN int
	// RAS is the live call stack (return addresses), oldest frame first.
	RAS []uint64
}

// pageRef is one page of a checkpoint's touched-memory delta: its virtual
// page number and the end of its runs in pageData (they start where the
// previous page's end).
type pageRef struct {
	vpn uint64
	end int
}

// DirtyPages returns how many pages the touched-memory delta restores.
func (c *Checkpoint) DirtyPages() int { return len(c.pages) }

// WarmRecords returns how many retired instructions the warm-up log replays.
func (c *Checkpoint) WarmRecords() int { return c.warmN }

// EncodedBytes returns the sizes of the encoded touched-memory delta and
// warm-up log.
func (c *Checkpoint) EncodedBytes() (pages, warm int) { return len(c.pageData), len(c.warm) }

// capturer accumulates checkpoint inputs while the functional machine runs.
type capturer struct {
	dirty map[uint64]struct{} // written virtual page numbers, cumulative
	ring  []warmRecord        // warm-up log ring
	pos   int                 // next write position
	n     int                 // records written (saturates at len(ring))
	ras   []uint64            // shadow call stack

	// Scratch reused across snapshots: one page frame, and the encoders'
	// output before it is copied out at its exact size.
	frame [mem.PageSize]byte
	buf   []byte
}

func newCapturer(warmInsts uint64) *capturer {
	if warmInsts == 0 {
		warmInsts = DefaultWarmInsts
	}
	return &capturer{
		dirty: make(map[uint64]struct{}),
		ring:  make([]warmRecord, warmInsts),
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
	rec := warmRecord{pc: pc, kind: warmPlain}
	switch {
	case in.Op.IsCondBranch():
		rec.kind = warmBranch
		rec.taken = funcsim.BranchTaken(in.Op, t.Reg(in.Rs1), t.Reg(in.Rs2))
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
				rec.kind = warmIndirect
				rec.addr = t.Reg(in.Rs1) + uint64(in.Imm)
			}
		}
	case in.Op.IsStore():
		rec.kind = warmStore
		rec.addr = t.Reg(in.Rs1) + uint64(in.Imm)
	case in.Op.IsLoad() && in.Rd != in.Rs1:
		rec.kind = warmLoad
		rec.addr = t.Reg(in.Rs1) + uint64(in.Imm)
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
	}
	vpns := make([]uint64, 0, len(c.dirty))
	for vpn := range c.dirty {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	cp.pages = make([]pageRef, 0, len(vpns))
	buf := c.buf[:0]
	for _, vpn := range vpns {
		pte, ok := ff.AS.Lookup(vpn << mem.PageBits)
		if !ok {
			continue // unmapped after the write; nothing to restore
		}
		ff.AS.Phys.ReadInto(c.frame[:], pte.PPN<<mem.PageBits)
		buf = encodePage(buf, c.frame[:])
		cp.pages = append(cp.pages, pageRef{vpn: vpn, end: len(buf)})
	}
	cp.pageData = bytes.Clone(buf)
	// Encode the ring chronologically.
	enc := warmEncoder{buf: buf[:0]}
	start := c.pos - c.n
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.n; i++ {
		enc.add(c.ring[(start+i)%len(c.ring)])
	}
	cp.warm, cp.warmN = bytes.Clone(enc.buf), enc.n
	c.buf = enc.buf
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
// space, reproducing the exact memory image at the boundary. It rebuilds
// each page in one buffer and writes it whole through the physical backing
// (page tables are static at runtime — the ISA has no mapping operations —
// so a fresh load maps the same pages), so a word the program re-zeroed
// overwrites the fresh load's data too.
func (c *Checkpoint) patchPages(as *mem.AddressSpace) error {
	var page [mem.PageSize]byte
	start := 0
	for _, p := range c.pages {
		pte, ok := as.Lookup(p.vpn << mem.PageBits)
		if !ok {
			return fmt.Errorf("simpoint: checkpoint page 0x%x not mapped in a fresh load", p.vpn<<mem.PageBits)
		}
		if err := decodePage(page[:], c.pageData[start:p.end]); err != nil {
			return err
		}
		start = p.end
		as.Phys.WriteBytes(pte.PPN<<mem.PageBits, page[:])
	}
	return nil
}

// replayWarm trains the machine's I-side (ITLB, L1I), D-side (DTLB, L1D)
// and branch predictors from the warm-up log — the same footprint the old
// live warmer applied, now decoupled from the fast-forward pass. Each side
// walks the page table only when its page changes (pageMemo); every TLB
// lookup and fill, cache access and predictor update still happens per
// record.
func (c *Checkpoint) replayWarm(m *pipeline.Machine, as *mem.AddressSpace) {
	tage, btb := m.Predictors()
	ipage, dpage := pageMemo{vpn: noPage}, pageMemo{vpn: noPage}
	d := warmDecoder{buf: c.warm}
	for {
		rec, ok := d.next()
		if !ok {
			return
		}
		if ipaddr, ipte, ok := ipage.translate(as, rec.pc, mem.Exec); ok {
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
			if paddr, pte, ok := dpage.translate(as, rec.addr, acc); ok {
				if _, hit := m.DTLB.Lookup(rec.addr >> mem.PageBits); !hit {
					m.DTLB.Fill(rec.addr>>mem.PageBits, pte)
				}
				m.Hier.L1D.Access(paddr, rec.kind == warmStore)
			}
		}
	}
}

// noPage is a virtual page number no address has (addresses shift down by
// mem.PageBits), so a pageMemo holding it remembers nothing.
const noPage = ^uint64(0)

// pageMemo remembers the last page-table lookup, so a run of warm records on
// one page walks the table once. Page tables are static at runtime (see
// patchPages), so the remembered entry never goes stale.
type pageMemo struct {
	vpn   uint64
	pte   mem.PTE
	valid bool // mapped and valid
}

// translate is AddressSpace.Translate without the fault value: the
// physical address and entry of vaddr, and whether the page is mapped,
// valid and allows access a.
func (p *pageMemo) translate(as *mem.AddressSpace, vaddr uint64, a mem.AccessKind) (uint64, mem.PTE, bool) {
	if vpn := vaddr >> mem.PageBits; vpn != p.vpn {
		p.vpn = vpn
		p.pte, p.valid = as.Lookup(vaddr)
		p.valid = p.valid && p.pte.Valid
	}
	if !p.valid || !p.pte.AllowsProt(a) {
		return 0, p.pte, false
	}
	return p.pte.PPN<<mem.PageBits | vaddr&(mem.PageSize-1), p.pte, true
}

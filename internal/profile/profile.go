// Package profile attributes the pipeline's simulated time to program
// locations. It hosts three layers:
//
//   - Profiler: a pipeline.ProfileSink that buckets every simulated cycle
//     (the same attribution the CPI stack folds into Stats.CPI, so the
//     per-PC stacks provably sum to the global one) and every retired
//     instruction by PC, then rolls PCs up into basic blocks.
//   - DiffReport (diff.go): the cross-policy differential — the same
//     workload profiled under two registered policies, ranked by per-PC
//     cycle delta, with annotated disassembly and a gap histogram.
//   - Ledger (ledger.go): the pkey security audit ledger, a trace.Sink
//     on the core's event stream tallying per-pkey transient-upgrade
//     windows, load stalls, forwarding suppressions, and deferred TLB
//     updates.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/pipeline"
)

// PCCounts is everything attributed to one program counter.
type PCCounts struct {
	Retired uint64            `json:"retired"`
	Cycles  uint64            `json:"cycles"`
	CPI     pipeline.CPIStack `json:"cpi"`
}

// Profiler implements pipeline.ProfileSink. Attach with m.Prof = p before
// running; the program is optional and only enables disassembly, symbol
// names, and basic-block rollups in the report.
type Profiler struct {
	prog *asm.Program
	pcs  map[uint64]*PCCounts

	// Total mirrors the machine's global CPI stack; RetiredTotal mirrors
	// Stats.Insts. Kept independently so the sum invariant is testable
	// against the machine's own counters.
	Total        pipeline.CPIStack
	RetiredTotal uint64
}

// New builds a Profiler. prog may be nil (raw-PC report only).
func New(prog *asm.Program) *Profiler {
	return &Profiler{prog: prog, pcs: make(map[uint64]*PCCounts)}
}

func (p *Profiler) at(pc uint64) *PCCounts {
	c := p.pcs[pc]
	if c == nil {
		c = &PCCounts{}
		p.pcs[pc] = c
	}
	return c
}

// CycleAttributed implements pipeline.ProfileSink.
func (p *Profiler) CycleAttributed(b pipeline.CPIBucket, pc uint64, n uint64) {
	c := p.at(pc)
	c.Cycles += n
	c.CPI.AddN(b, n)
	p.Total.AddN(b, n)
}

// Retired implements pipeline.ProfileSink.
func (p *Profiler) Retired(pc uint64) {
	p.at(pc).Retired++
	p.RetiredTotal++
}

// Row is one line of the top-PC table.
type Row struct {
	PC      uint64            `json:"pc"`
	Func    string            `json:"func,omitempty"`
	Disasm  string            `json:"disasm,omitempty"`
	Retired uint64            `json:"retired"`
	Cycles  uint64            `json:"cycles"`
	CPI     pipeline.CPIStack `json:"cpi"`
}

// BlockRow aggregates a basic block (straight-line run of instructions
// ending at a control transfer, delimited by branch/jump targets and
// symbols).
type BlockRow struct {
	Start   uint64            `json:"start"`
	End     uint64            `json:"end"` // exclusive
	Label   string            `json:"label"`
	Retired uint64            `json:"retired"`
	Cycles  uint64            `json:"cycles"`
	CPI     pipeline.CPIStack `json:"cpi"`
}

// Report is a finished profile: per-PC rows sorted by cycles descending,
// basic-block rollups in address order, and the global totals.
type Report struct {
	Rows    []Row             `json:"rows"`
	Blocks  []BlockRow        `json:"blocks,omitempty"`
	Total   pipeline.CPIStack `json:"total"`
	Retired uint64            `json:"retired"`
}

// Report freezes the profiler into a Report.
func (p *Profiler) Report() *Report {
	r := &Report{Total: p.Total, Retired: p.RetiredTotal}
	for pc, c := range p.pcs {
		row := Row{PC: pc, Retired: c.Retired, Cycles: c.Cycles, CPI: c.CPI}
		if p.prog != nil {
			if in, ok := p.prog.InstAt(pc); ok {
				row.Disasm = in.String()
			}
			row.Func = funcName(p.prog, pc)
		}
		r.Rows = append(r.Rows, row)
	}
	sort.Slice(r.Rows, func(i, j int) bool {
		if r.Rows[i].Cycles != r.Rows[j].Cycles {
			return r.Rows[i].Cycles > r.Rows[j].Cycles
		}
		return r.Rows[i].PC < r.Rows[j].PC
	})
	if p.prog != nil {
		r.Blocks = p.blocks()
	}
	return r
}

// funcName maps pc to the name of the enclosing symbol (greatest symbol
// address <= pc; of several names there, the first in sorted order, as
// asm.Program.SymbolsByAddr lists them), or "" when no symbol covers it.
func funcName(prog *asm.Program, pc uint64) string {
	best, name := uint64(0), ""
	for s, addr := range prog.Symbols {
		if addr <= pc && (name == "" || addr > best || addr == best && s < name) {
			best, name = addr, s
		}
	}
	return name
}

// blockLeaders returns the sorted basic-block leader addresses of prog:
// the entry, every branch/jump target, every instruction after a control
// transfer, and every symbol.
func blockLeaders(prog *asm.Program) []uint64 {
	set := map[uint64]bool{prog.Entry: true, prog.CodeBase: true}
	for i, in := range prog.Insts {
		pc := prog.CodeBase + uint64(i)*isa.InstBytes
		if in.Op.IsControl() {
			set[pc+isa.InstBytes] = true
		}
		if t, ok := in.Target(); ok {
			set[t] = true
		}
	}
	for _, addr := range prog.Symbols {
		set[addr] = true
	}
	end := prog.CodeBase + prog.CodeSize()
	leaders := make([]uint64, 0, len(set))
	for pc := range set {
		if pc >= prog.CodeBase && pc < end {
			leaders = append(leaders, pc)
		}
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	return leaders
}

// blocks rolls the per-PC counts up into basic blocks. PCs outside the
// text segment collapse into a single trailing "?" block.
func (p *Profiler) blocks() []BlockRow {
	leaders := blockLeaders(p.prog)
	end := p.prog.CodeBase + p.prog.CodeSize()
	rows := make([]BlockRow, len(leaders))
	for i, start := range leaders {
		bEnd := end
		if i+1 < len(leaders) {
			bEnd = leaders[i+1]
		}
		label := funcName(p.prog, start)
		if label == "" || p.prog.Symbols[label] != start {
			label = fmt.Sprintf("%s+0x%x", label, start-p.prog.Symbols[label])
		}
		rows[i] = BlockRow{Start: start, End: bEnd, Label: label}
	}
	var outside BlockRow
	outside.Label = "?"
	for pc, c := range p.pcs {
		i := sort.Search(len(leaders), func(i int) bool { return leaders[i] > pc }) - 1
		if i < 0 || pc >= end {
			outside.Retired += c.Retired
			outside.Cycles += c.Cycles
			outside.CPI = addStacks(outside.CPI, c.CPI)
			continue
		}
		rows[i].Retired += c.Retired
		rows[i].Cycles += c.Cycles
		rows[i].CPI = addStacks(rows[i].CPI, c.CPI)
	}
	out := rows[:0]
	for _, r := range rows {
		if r.Cycles > 0 || r.Retired > 0 {
			out = append(out, r)
		}
	}
	if outside.Cycles > 0 || outside.Retired > 0 {
		out = append(out, outside)
	}
	return out
}

func addStacks(a, b pipeline.CPIStack) pipeline.CPIStack {
	for k := pipeline.CPIBucket(0); k < pipeline.NumCPIBuckets; k++ {
		a.AddN(k, b.Bucket(k))
	}
	return a
}

// Table writes the top-N PC table: rank, PC, symbol+disasm, retired count,
// total cycles, and the dominant CPI-stack buckets.
func (r *Report) Table(w io.Writer, topN int) {
	if topN <= 0 || topN > len(r.Rows) {
		topN = len(r.Rows)
	}
	total := r.Total.Sum()
	fmt.Fprintf(w, "%-4s %-10s %6s %10s %10s  %-28s %s\n",
		"#", "pc", "cyc%", "cycles", "retired", "hottest buckets", "disasm")
	for i, row := range r.Rows[:topN] {
		loc := row.Disasm
		if row.Func != "" {
			loc = fmt.Sprintf("<%s> %s", row.Func, row.Disasm)
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(row.Cycles) / float64(total)
		}
		fmt.Fprintf(w, "%-4d 0x%-8x %5.1f%% %10d %10d  %-28s %s\n",
			i+1, row.PC, pct, row.Cycles, row.Retired, topBuckets(row.CPI), loc)
	}
	fmt.Fprintf(w, "total cycles %d, retired %d\n", total, r.Retired)
}

// BlockTable writes the basic-block rollup, hottest first.
func (r *Report) BlockTable(w io.Writer, topN int) {
	blocks := append([]BlockRow(nil), r.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Cycles > blocks[j].Cycles })
	if topN <= 0 || topN > len(blocks) {
		topN = len(blocks)
	}
	fmt.Fprintf(w, "%-4s %-22s %-21s %10s %10s  %s\n",
		"#", "block", "range", "cycles", "retired", "hottest buckets")
	for i, b := range blocks[:topN] {
		fmt.Fprintf(w, "%-4d %-22s 0x%-8x-0x%-8x %10d %10d  %s\n",
			i+1, b.Label, b.Start, b.End, b.Cycles, b.Retired, topBuckets(b.CPI))
	}
}

// topBuckets names the nonzero CPI buckets, largest first.
func topBuckets(c pipeline.CPIStack) string {
	type bv struct {
		b pipeline.CPIBucket
		v uint64
	}
	var bs []bv
	for b := pipeline.CPIBucket(0); b < pipeline.NumCPIBuckets; b++ {
		if v := c.Bucket(b); v > 0 {
			bs = append(bs, bv{b, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].v > bs[j].v })
	parts := make([]string, 0, len(bs))
	for _, e := range bs {
		parts = append(parts, fmt.Sprintf("%s=%d", e.b, e.v))
		if len(parts) == 3 {
			break
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// Annotate writes the full annotated disassembly: every instruction of the
// program with its retired count, attributed cycles, and bucket breakdown.
// Requires the profiler to have been built with a program.
func Annotate(w io.Writer, prog *asm.Program, r *Report) {
	byPC := make(map[uint64]Row, len(r.Rows))
	for _, row := range r.Rows {
		byPC[row.PC] = row
	}
	leaders := map[uint64]bool{}
	for _, l := range blockLeaders(prog) {
		leaders[l] = true
	}
	names := prog.SymbolsByAddr()
	total := r.Total.Sum()
	fmt.Fprintf(w, "%-10s %8s %10s %6s  %-26s %s\n",
		"pc", "retired", "cycles", "cyc%", "disasm", "buckets")
	for i, in := range prog.Insts {
		pc := prog.CodeBase + uint64(i)*isa.InstBytes
		for _, s := range names[pc] {
			fmt.Fprintf(w, "%s:\n", s)
		}
		if len(names[pc]) == 0 && leaders[pc] && i > 0 {
			fmt.Fprintf(w, ".L%x:\n", pc)
		}
		row := byPC[pc]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(row.Cycles) / float64(total)
		}
		mark := " "
		if pct >= 10 {
			mark = "*"
		}
		fmt.Fprintf(w, "0x%-8x %8d %10d %5.1f%%%s %-26s %s\n",
			pc, row.Retired, row.Cycles, pct, mark, in.String(), topBuckets(row.CPI))
	}
}

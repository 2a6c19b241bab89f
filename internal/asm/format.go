package asm

import (
	"fmt"
	"sort"
	"strings"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

// Format renders a linked program back into the text-assembler syntax, so
// that Parse(Format(p)) reproduces the program exactly (the round-trip
// property the tests check). Control-flow targets become labels: the
// program's own symbols where available (every name an address has, and the
// first of them where one is referenced), synthetic local labels otherwise.
func Format(p *Program) (string, error) {
	// Reverse the symbol table and invent labels for anonymous targets.
	labels := p.SymbolsByAddr()
	// Labels may sit one slot past the last instruction (a fall-off-end
	// target the parser accepts), hence <= rather than <.
	inText := func(addr uint64) bool {
		return addr >= p.CodeBase && addr <= p.CodeBase+p.CodeSize() &&
			(addr-p.CodeBase)%isa.InstBytes == 0
	}
	for i, in := range p.Insts {
		if t, ok := in.Target(); ok {
			if !inText(t) {
				return "", fmt.Errorf("asm: instruction %d targets 0x%x outside the text segment", i, t)
			}
			if _, ok := labels[t]; !ok {
				labels[t] = []string{fmt.Sprintf("L_%x", t)}
			}
		}
	}
	if _, ok := labels[p.Entry]; !ok {
		if !inText(p.Entry) {
			return "", fmt.Errorf("asm: entry 0x%x outside the text segment", p.Entry)
		}
		labels[p.Entry] = []string{"entry"}
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".code 0x%x\n", p.CodeBase)
	fmt.Fprintf(&b, ".entry %s\n", labels[p.Entry][0])
	for _, r := range p.Regions {
		fmt.Fprintf(&b, ".region %s 0x%x 0x%x %s %d\n",
			sanitizeName(r.Name), r.Base, r.Size, protString(r.Prot), r.PKey)
	}
	regs := make([]int, 0, len(p.InitRegs))
	for r := range p.InitRegs {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	for _, r := range regs {
		fmt.Fprintf(&b, ".initreg r%d 0x%x\n", r, p.InitRegs[uint8(r)])
	}
	for _, d := range p.Data {
		fmt.Fprintf(&b, ".data 0x%x", d.Addr)
		for _, by := range d.Bytes {
			fmt.Fprintf(&b, " %02x", by)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	for i, in := range p.Insts {
		addr := p.CodeBase + uint64(i)*isa.InstBytes
		for _, name := range labels[addr] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		target := ""
		if t, ok := in.Target(); ok {
			target = labels[t][0]
		}
		fmt.Fprintf(&b, "    %s\n", in.Render(target))
	}
	for _, name := range labels[p.CodeBase+p.CodeSize()] {
		fmt.Fprintf(&b, "%s:\n", name)
	}
	return b.String(), nil
}

func protString(p mem.Prot) string {
	s := ""
	if p&mem.ProtRead != 0 {
		s += "r"
	}
	if p&mem.ProtWrite != 0 {
		s += "w"
	}
	if p&mem.ProtExec != 0 {
		s += "x"
	}
	if s == "" {
		s = "r" // the parser has no syntax for no-permission regions
	}
	return s
}

// sanitizeName keeps region names parseable (single token).
func sanitizeName(s string) string {
	if s == "" {
		return "region"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

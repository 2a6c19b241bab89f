// Package asm provides the program representation shared by the simulators,
// a programmatic assembly builder (used by the workload generator and the
// attack harness), and a small text assembler.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

// Region describes one mapped virtual range of a program image and the
// protection key its pages carry.
type Region struct {
	Name string
	Base uint64
	Size uint64
	Prot mem.Prot
	PKey int
}

// DataSeg is a blob preloaded into memory before execution.
type DataSeg struct {
	Addr  uint64
	Bytes []byte
}

// Program is a fully linked executable image.
type Program struct {
	CodeBase uint64
	Entry    uint64
	Insts    []isa.Inst
	Regions  []Region
	Data     []DataSeg
	// InitRegs seeds architectural registers before execution (stack
	// pointer, shadow-stack pointer, globals base, ...).
	InitRegs map[uint8]uint64
	// Symbols maps function names to their addresses (diagnostics).
	Symbols map[string]uint64
}

// CodeSize returns the byte size of the text segment.
func (p *Program) CodeSize() uint64 {
	return uint64(len(p.Insts)) * isa.InstBytes
}

// InstAt returns the instruction at byte address pc, or false if pc is
// outside the text segment or misaligned.
func (p *Program) InstAt(pc uint64) (isa.Inst, bool) {
	if pc < p.CodeBase || (pc-p.CodeBase)%isa.InstBytes != 0 {
		return isa.Inst{}, false
	}
	idx := (pc - p.CodeBase) / isa.InstBytes
	if idx >= uint64(len(p.Insts)) {
		return isa.Inst{}, false
	}
	return p.Insts[idx], true
}

// Load maps the program image into a fresh address space: code pages
// (read+exec, pKey 0 — MPK does not govern fetches), each declared region,
// and the preloaded data segments. The encoded text is also written to
// memory so instruction fetch has real physical addresses to miss on.
func (p *Program) Load() (*mem.AddressSpace, error) {
	as := mem.NewAddressSpace()
	codeBytes := (p.CodeSize() + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if codeBytes == 0 {
		codeBytes = mem.PageSize
	}
	as.Map(p.CodeBase, codeBytes, mem.ProtRX)
	// pKeys must be reserved before pkey_mprotect accepts them. Regions
	// name keys directly, so claim every key that appears.
	claimed := map[int]bool{0: true}
	for _, r := range p.Regions {
		if r.PKey != 0 && !claimed[r.PKey] {
			// Claim keys in ascending order below to keep allocation
			// deterministic; collected here first.
			claimed[r.PKey] = true
		}
	}
	keys := make([]int, 0, len(claimed))
	for k := range claimed {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	allocated := map[int]bool{0: true}
	for _, want := range keys {
		for {
			k, err := as.PkeyAlloc()
			if err != nil {
				return nil, fmt.Errorf("asm: cannot allocate pkey %d: %v", want, err)
			}
			allocated[k] = true
			if k == want {
				break
			}
			if k > want {
				return nil, fmt.Errorf("asm: pkey %d unavailable", want)
			}
		}
	}
	for _, r := range p.Regions {
		if r.Size%mem.PageSize != 0 || r.Base%mem.PageSize != 0 {
			return nil, fmt.Errorf("asm: region %q not page aligned", r.Name)
		}
		as.Map(r.Base, r.Size, r.Prot)
		if r.PKey != 0 {
			if err := as.PkeyMprotect(r.Base, r.Size, r.Prot, r.PKey); err != nil {
				return nil, fmt.Errorf("asm: region %q: %v", r.Name, err)
			}
		}
	}
	// Write the encoded text. Code pages are R+X; use the kernel-style
	// writer which bypasses PTE write permission via a temporary flip.
	img := isa.EncodeProgram(p.Insts)
	if err := as.Mprotect(p.CodeBase, codeBytes, mem.ProtRW); err != nil {
		return nil, err
	}
	if err := as.WriteVirtBytes(p.CodeBase, img); err != nil {
		return nil, err
	}
	if err := as.Mprotect(p.CodeBase, codeBytes, mem.ProtRX); err != nil {
		return nil, err
	}
	for _, d := range p.Data {
		if err := as.WriteVirtBytes(d.Addr, d.Bytes); err != nil {
			return nil, fmt.Errorf("asm: data segment at 0x%x: %v", d.Addr, err)
		}
	}
	return as, nil
}

// SymbolsByAddr inverts Symbols: every address that has a name maps to all
// of its names, sorted, so that output naming an address does not depend on
// map order when two labels share it. Listings print them all in this
// order; where one name must stand for the address, it is the first.
func (p *Program) SymbolsByAddr() map[uint64][]string {
	out := make(map[uint64][]string, len(p.Symbols))
	for name, addr := range p.Symbols {
		out[addr] = append(out[addr], name)
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out
}

// Disassemble renders the program listing with addresses and symbols.
func (p *Program) Disassemble() string {
	names := p.SymbolsByAddr()
	var b strings.Builder
	for i, in := range p.Insts {
		addr := p.CodeBase + uint64(i)*isa.InstBytes
		for _, name := range names[addr] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "  0x%06x  %s\n", addr, in)
	}
	return b.String()
}

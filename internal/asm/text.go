package asm

import (
	"fmt"
	"strconv"
	"strings"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

// Parse assembles a text program. The syntax is one instruction or
// directive per line; "#" and ";" start comments. Labels ("name:") are
// global. A name may not begin with ".", which starts a directive, or hold
// a ",", which separates operands, so that every label can stand at the
// start of a line and as a jump target. Directives:
//
//	.code 0x10000                       text base (default 0x10000)
//	.entry main                         entry label (default "main")
//	.region name base size prot pkey    mapped range; prot in {r,rw,rx,rwx}
//	.data addr b0 b1 b2 ...             hex bytes preloaded at addr
//	.word addr v0 v1 ...                64-bit little-endian words at addr
//	.initreg reg value                  seed a register
//
// An instruction's comma-separated operands follow its opcode's form
// (isa.Op.Operands); a static target is written as a label.
// Pseudo-instructions: call <label> (jal ra), jmp <label> (jal r0),
// ret (jalr r0, 0(ra)).
func Parse(src string) (*Program, error) {
	p := &parser{
		prog: &Program{
			CodeBase: 0x10000,
			InitRegs: make(map[uint8]uint64),
			Symbols:  make(map[string]uint64),
		},
		labels: make(map[string]int),
		entry:  "main",
	}
	for i, raw := range strings.Split(src, "\n") {
		if err := p.line(raw); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v", i+1, err)
		}
	}
	return p.finish()
}

type textFixup struct {
	inst  int
	label string
}

type parser struct {
	prog   *Program
	labels map[string]int
	fixups []textFixup
	entry  string
}

var regAlias = map[string]uint8{
	"zero": isa.RegZero, "ra": isa.RegRA, "sp": isa.RegSP, "ssp": isa.RegSSP,
	"gp": isa.RegGP, "a0": isa.RegA0, "a1": isa.RegA1, "a2": isa.RegA2,
	"a3": isa.RegA3,
}

func parseReg(s string) (uint8, error) {
	s = strings.TrimSpace(s)
	if r, ok := regAlias[s]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "t") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < 10 {
			return uint8(isa.RegT0 + n), nil
		}
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	iv := int64(v)
	if neg {
		iv = -iv
	}
	return iv, nil
}

// parseMemOperand handles "imm(rN)".
func parseMemOperand(s string) (uint8, int64, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var imm int64
	var err error
	if open > 0 {
		if imm, err = parseInt(s[:open]); err != nil {
			return 0, 0, err
		}
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return reg, imm, nil
}

func parseProt(s string) (mem.Prot, error) {
	var p mem.Prot
	for _, c := range s {
		switch c {
		case 'r':
			p |= mem.ProtRead
		case 'w':
			p |= mem.ProtWrite
		case 'x':
			p |= mem.ProtExec
		default:
			return 0, fmt.Errorf("bad prot %q", s)
		}
	}
	return p, nil
}

func (p *parser) line(raw string) error {
	if i := strings.IndexAny(raw, "#;"); i >= 0 {
		raw = raw[:i]
	}
	s := strings.TrimSpace(raw)
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".") {
		return p.directive(s)
	}
	for {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			break
		}
		name := strings.TrimSpace(s[:colon])
		if name == "" || strings.ContainsAny(name, " \t,") || strings.HasPrefix(name, ".") {
			return fmt.Errorf("bad label %q", name)
		}
		if _, dup := p.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		p.labels[name] = len(p.prog.Insts)
		s = strings.TrimSpace(s[colon+1:])
		if s == "" {
			return nil
		}
	}
	return p.instruction(s)
}

func (p *parser) directive(s string) error {
	fields := strings.Fields(s)
	switch fields[0] {
	case ".code":
		if len(fields) != 2 {
			return fmt.Errorf(".code needs one argument")
		}
		v, err := parseInt(fields[1])
		if err != nil {
			return err
		}
		p.prog.CodeBase = uint64(v)
	case ".entry":
		if len(fields) != 2 {
			return fmt.Errorf(".entry needs one argument")
		}
		p.entry = fields[1]
	case ".region":
		if len(fields) != 6 {
			return fmt.Errorf(".region needs name base size prot pkey")
		}
		base, err := parseInt(fields[2])
		if err != nil {
			return err
		}
		size, err := parseInt(fields[3])
		if err != nil {
			return err
		}
		prot, err := parseProt(fields[4])
		if err != nil {
			return err
		}
		pkey, err := parseInt(fields[5])
		if err != nil {
			return err
		}
		p.prog.Regions = append(p.prog.Regions, Region{
			Name: fields[1], Base: uint64(base), Size: uint64(size),
			Prot: prot, PKey: int(pkey),
		})
	case ".data":
		if len(fields) < 3 {
			return fmt.Errorf(".data needs addr and bytes")
		}
		addr, err := parseInt(fields[1])
		if err != nil {
			return err
		}
		bytes := make([]byte, 0, len(fields)-2)
		for _, f := range fields[2:] {
			b, err := strconv.ParseUint(f, 16, 8)
			if err != nil {
				return fmt.Errorf("bad data byte %q", f)
			}
			bytes = append(bytes, byte(b))
		}
		p.prog.Data = append(p.prog.Data, DataSeg{Addr: uint64(addr), Bytes: bytes})
	case ".word":
		if len(fields) < 3 {
			return fmt.Errorf(".word needs addr and values")
		}
		addr, err := parseInt(fields[1])
		if err != nil {
			return err
		}
		var bytes []byte
		for _, f := range fields[2:] {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				bytes = append(bytes, byte(uint64(v)>>(8*i)))
			}
		}
		p.prog.Data = append(p.prog.Data, DataSeg{Addr: uint64(addr), Bytes: bytes})
	case ".initreg":
		if len(fields) != 3 {
			return fmt.Errorf(".initreg needs reg value")
		}
		r, err := parseReg(fields[1])
		if err != nil {
			return err
		}
		v, err := parseInt(fields[2])
		if err != nil {
			return err
		}
		p.prog.InitRegs[r] = uint64(v)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func (p *parser) instruction(s string) error {
	var mnem, rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mnem, rest = s[:i], strings.TrimSpace(s[i+1:])
	} else {
		mnem = s
	}
	args := []string{}
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}

	var in isa.Inst
	var form []isa.Operand
	switch mnem {
	case "call":
		in, form = isa.Inst{Op: isa.OpJal, Rd: isa.RegRA}, jumpForm
	case "jmp":
		in, form = isa.Inst{Op: isa.OpJal, Rd: isa.RegZero}, jumpForm
	case "ret":
		in = isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}
	default:
		op, ok := isa.OpByName(mnem)
		if !ok {
			return fmt.Errorf("unknown mnemonic %q", mnem)
		}
		in, form = isa.Inst{Op: op}, op.Operands()
	}
	if len(args) != len(form) {
		return fmt.Errorf("%s needs %d operands, got %d", mnem, len(form), len(args))
	}
	for k, o := range form {
		var err error
		switch o {
		case isa.Rd:
			in.Rd, err = parseReg(args[k])
		case isa.Rs1:
			in.Rs1, err = parseReg(args[k])
		case isa.Rs2:
			in.Rs2, err = parseReg(args[k])
		case isa.Imm:
			in.Imm, err = parseInt(args[k])
		case isa.Mem:
			in.Rs1, in.Imm, err = parseMemOperand(args[k])
		case isa.Target:
			// Resolved in finish; an empty label fails there as undefined.
			p.fixups = append(p.fixups, textFixup{inst: len(p.prog.Insts), label: args[k]})
		}
		if err != nil {
			return err
		}
	}
	p.prog.Insts = append(p.prog.Insts, in)
	return nil
}

// jumpForm is the operand form of the call and jmp pseudo-instructions.
var jumpForm = []isa.Operand{isa.Target}

func (p *parser) finish() (*Program, error) {
	for name, idx := range p.labels {
		p.prog.Symbols[name] = p.prog.CodeBase + uint64(idx)*isa.InstBytes
	}
	for _, fx := range p.fixups {
		addr, ok := p.prog.Symbols[fx.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", fx.label)
		}
		p.prog.Insts[fx.inst].Imm = int64(addr)
	}
	entry, ok := p.prog.Symbols[p.entry]
	if !ok {
		return nil, fmt.Errorf("asm: entry label %q not defined", p.entry)
	}
	p.prog.Entry = entry
	return p.prog, nil
}

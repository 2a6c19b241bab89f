// Package isa defines the instruction set used throughout the SpecMPK
// reproduction: a small 64-bit RISC-style ISA extended with the MPK
// permission-update instructions WRPKRU and RDPKRU.
//
// The real MPK extension lives on x86-64 where WRPKRU copies the implicit
// EAX register into PKRU. Our ISA makes the source register explicit
// (WRPKRU rs1); the serialization/speculation semantics studied by the paper
// are unchanged by this difference, and it keeps the renaming story in the
// simulator honest (PKRU is still an implicit destination).
package isa

import (
	"fmt"
	"strconv"
)

// Op enumerates every opcode in the ISA.
type Op uint8

const (
	// OpNop does nothing. Also used as the WRPKRU stub when measuring
	// compiler-transformation overhead (Fig. 4 methodology).
	OpNop Op = iota
	// OpHalt stops the machine; the program's exit point.
	OpHalt

	// Register-register ALU operations: rd = rs1 <op> rs2.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul
	OpDiv

	// Register-immediate ALU operations: rd = rs1 <op> imm.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri

	// OpMovi loads a 64-bit immediate: rd = imm.
	OpMovi

	// OpLd loads 8 bytes: rd = mem[rs1+imm].
	OpLd
	// OpSt stores 8 bytes: mem[rs1+imm] = rs2.
	OpSt
	// OpLb loads 1 byte zero-extended: rd = mem8[rs1+imm].
	OpLb
	// OpSb stores 1 byte: mem8[rs1+imm] = rs2.
	OpSb

	// Conditional branches to the absolute byte address in Imm.
	OpBeq
	OpBne
	OpBlt
	OpBge

	// OpJal jumps to the absolute address Imm, writing the return address
	// (pc+InstBytes) to rd. rd = RegZero makes it a plain jump.
	OpJal
	// OpJalr jumps to rs1+imm, writing the return address to rd. With
	// rd = RegZero and rs1 = RegRA it is a function return.
	OpJalr

	// OpWrpkru copies rs1's low 32 bits into the PKRU register. Serializing
	// on the baseline microarchitecture; speculative under SpecMPK.
	OpWrpkru
	// OpRdpkru copies PKRU into rd. Serialized in all modes (paper §V-C6).
	OpRdpkru

	// OpClflush evicts the line containing rs1+imm from all cache levels.
	// Used by the flush+reload attack harness.
	OpClflush
	// OpRdcycle reads the current cycle counter into rd, letting attack
	// code time its own loads like rdtsc.
	OpRdcycle

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// InstBytes is the size of one encoded instruction in instruction memory.
// Program counters advance in units of InstBytes.
const InstBytes = 16

// NumRegs is the number of architectural general-purpose registers.
// Register 0 is hardwired to zero.
const NumRegs = 32

// Conventional register assignments used by the assembler and the workload
// generator.
const (
	RegZero = 0 // always zero
	RegRA   = 1 // return address (link register)
	RegSP   = 2 // stack pointer
	RegSSP  = 3 // shadow-stack pointer (the paper's R15 analogue)
	RegGP   = 4 // global/data pointer
	RegA0   = 5 // first argument / return value
	RegA1   = 6
	RegA2   = 7
	RegA3   = 8
	RegT0   = 9 // temporaries T0..T9 are r9..r18
	RegS0   = 19
)

// Inst is one decoded instruction. Branch and Jal targets are absolute byte
// addresses in Imm (the assembler resolves labels before emission).
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int64
}

// Operand is one operand of an instruction's assembly form.
type Operand uint8

// Operand kinds. Rd, Rs1 and Rs2 are written rN and Imm as a signed
// integer. Mem is written imm(rs1) and reads Rs1. Target is the absolute
// code address in Imm: a label in assembler source, 0x<hex> in Inst.String.
const (
	Rd Operand = iota
	Rs1
	Rs2
	Imm
	Mem
	Target
)

// Operand forms shared by several opcodes, named by their operands.
var (
	rdRs1Rs2     = []Operand{Rd, Rs1, Rs2}
	rdRs1Imm     = []Operand{Rd, Rs1, Imm}
	rdMem        = []Operand{Rd, Mem}
	rs2Mem       = []Operand{Rs2, Mem}
	rs1Rs2Target = []Operand{Rs1, Rs2, Target}
	rdOnly       = []Operand{Rd}
	// allFields renders an undefined opcode: every field, nothing implied.
	allFields = []Operand{Rd, Rs1, Rs2, Imm}
)

// opTable is the one opcode table: each opcode's mnemonic and the operands
// of its assembly form, in written order. The disassembler (Inst.String),
// the text assembler, asm.Format, the operand-use predicates and
// Inst.Target all read it; what an opcode does lives in funcsim and in the
// pipeline.
var opTable = [NumOps]struct {
	name string
	form []Operand
}{
	OpNop:     {"nop", nil},
	OpHalt:    {"halt", nil},
	OpAdd:     {"add", rdRs1Rs2},
	OpSub:     {"sub", rdRs1Rs2},
	OpAnd:     {"and", rdRs1Rs2},
	OpOr:      {"or", rdRs1Rs2},
	OpXor:     {"xor", rdRs1Rs2},
	OpShl:     {"shl", rdRs1Rs2},
	OpShr:     {"shr", rdRs1Rs2},
	OpMul:     {"mul", rdRs1Rs2},
	OpDiv:     {"div", rdRs1Rs2},
	OpAddi:    {"addi", rdRs1Imm},
	OpAndi:    {"andi", rdRs1Imm},
	OpOri:     {"ori", rdRs1Imm},
	OpXori:    {"xori", rdRs1Imm},
	OpShli:    {"shli", rdRs1Imm},
	OpShri:    {"shri", rdRs1Imm},
	OpMovi:    {"movi", []Operand{Rd, Imm}},
	OpLd:      {"ld", rdMem},
	OpSt:      {"st", rs2Mem},
	OpLb:      {"lb", rdMem},
	OpSb:      {"sb", rs2Mem},
	OpBeq:     {"beq", rs1Rs2Target},
	OpBne:     {"bne", rs1Rs2Target},
	OpBlt:     {"blt", rs1Rs2Target},
	OpBge:     {"bge", rs1Rs2Target},
	OpJal:     {"jal", []Operand{Rd, Target}},
	OpJalr:    {"jalr", rdMem},
	OpWrpkru:  {"wrpkru", []Operand{Rs1}},
	OpRdpkru:  {"rdpkru", rdOnly},
	OpClflush: {"clflush", []Operand{Mem}},
	OpRdcycle: {"rdcycle", rdOnly},
}

// operandSet holds, per opcode value, bit 1<<k for each operand kind k in
// its form, computed once from opTable. An undefined opcode reads 0 and
// every query is one indexed load (rename asks for each instruction).
var operandSet = func() (set [256]uint8) {
	for op, row := range opTable {
		for _, o := range row.form {
			set[op] |= 1 << o
		}
	}
	return set
}()

// Name returns the mnemonic for op, or "op<N>" for undefined values.
func (o Op) Name() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Operands returns op's assembly form: its operand kinds in written order
// (nil for undefined opcodes). The slice is shared; do not modify it.
func (o Op) Operands() []Operand {
	if !o.Valid() {
		return nil
	}
	return opTable[o].form
}

// OpByName maps a mnemonic back to its opcode. ok is false for unknown names.
func OpByName(name string) (Op, bool) {
	for i, row := range opTable {
		if row.name == name {
			return Op(i), true
		}
	}
	return OpNop, false
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < NumOps }

// IsLoad reports whether o reads data memory.
func (o Op) IsLoad() bool { return o == OpLd || o == OpLb }

// IsStore reports whether o writes data memory.
func (o Op) IsStore() bool { return o == OpSt || o == OpSb }

// IsMem reports whether o accesses data memory.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

// MemBytes returns the access width of a memory op (0 for non-memory ops).
func (o Op) MemBytes() int {
	switch o {
	case OpLd, OpSt:
		return 8
	case OpLb, OpSb:
		return 1
	}
	return 0
}

// IsCondBranch reports whether o is a conditional branch.
func (o Op) IsCondBranch() bool {
	return o == OpBeq || o == OpBne || o == OpBlt || o == OpBge
}

// IsControl reports whether o can redirect the program counter.
func (o Op) IsControl() bool {
	return o.IsCondBranch() || o == OpJal || o == OpJalr
}

// IsALU reports whether o is executed on an ALU (including Movi and Rdcycle,
// which occupy an ALU slot for one cycle).
func (o Op) IsALU() bool {
	switch o {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpMovi, OpRdcycle:
		return true
	}
	return false
}

// WritesReg reports whether the instruction architecturally writes Rd: its
// form has an Rd and Rd is not RegZero (writes to RegZero are discarded).
func (i Inst) WritesReg() bool {
	return i.Rd != RegZero && operandSet[i.Op]&(1<<Rd) != 0
}

// ReadsRs1 reports whether the instruction reads Rs1 (as a register or as
// a memory operand's base).
func (i Inst) ReadsRs1() bool { return operandSet[i.Op]&(1<<Rs1|1<<Mem) != 0 }

// ReadsRs2 reports whether the instruction reads Rs2.
func (i Inst) ReadsRs2() bool { return operandSet[i.Op]&(1<<Rs2) != 0 }

// Target returns the static control target of a conditional branch or jal
// (the absolute address in Imm); ok is false for every other opcode,
// indirect jumps included.
func (i Inst) Target() (addr uint64, ok bool) {
	if operandSet[i.Op]&(1<<Target) == 0 {
		return 0, false
	}
	return uint64(i.Imm), true
}

// IsCall reports whether the instruction is a call (a jump that links).
func (i Inst) IsCall() bool {
	return (i.Op == OpJal || i.Op == OpJalr) && i.Rd != RegZero
}

// IsReturn reports whether the instruction is a function return
// (indirect jump through the link register without linking).
func (i Inst) IsReturn() bool {
	return i.Op == OpJalr && i.Rd == RegZero && i.Rs1 == RegRA
}

// String renders the instruction in assembly syntax, with a static target
// as its hex address.
func (i Inst) String() string {
	target := ""
	if t, ok := i.Target(); ok {
		target = "0x" + strconv.FormatUint(t, 16)
	}
	return i.Render(target)
}

// Render renders the instruction in assembly syntax from its opTable row,
// spelling a Target operand as target. An undefined opcode shows every
// field.
func (i Inst) Render(target string) string {
	form := allFields
	if i.Op.Valid() {
		form = opTable[i.Op].form
	}
	b := append(make([]byte, 0, 32), i.Op.Name()...)
	for k, o := range form {
		if k == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch o {
		case Rd:
			b = appendReg(b, i.Rd)
		case Rs1:
			b = appendReg(b, i.Rs1)
		case Rs2:
			b = appendReg(b, i.Rs2)
		case Imm:
			b = strconv.AppendInt(b, i.Imm, 10)
		case Mem:
			b = appendReg(append(strconv.AppendInt(b, i.Imm, 10), '('), i.Rs1)
			b = append(b, ')')
		case Target:
			b = append(b, target...)
		}
	}
	return string(b)
}

func appendReg(b []byte, r uint8) []byte {
	return strconv.AppendUint(append(b, 'r'), uint64(r), 10)
}

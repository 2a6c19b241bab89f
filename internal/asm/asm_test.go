package asm

import (
	"math/rand"
	"strings"
	"testing"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

func TestBuilderLinkLayout(t *testing.T) {
	b := NewBuilder(0x10000)
	main := b.Func("main")
	main.Movi(isa.RegA0, 7).Call("helper").Halt()
	h := b.Func("helper")
	h.Addi(isa.RegA0, isa.RegA0, 1).Ret()

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x10000 {
		t.Fatalf("entry = %x", p.Entry)
	}
	if len(p.Insts) != 5 {
		t.Fatalf("inst count = %d", len(p.Insts))
	}
	if p.Symbols["helper"] != 0x10000+3*isa.InstBytes {
		t.Fatalf("helper at %x", p.Symbols["helper"])
	}
	call := p.Insts[1]
	if call.Op != isa.OpJal || uint64(call.Imm) != p.Symbols["helper"] {
		t.Fatalf("call not resolved: %v", call)
	}
}

func TestBuilderLocalLabels(t *testing.T) {
	b := NewBuilder(0x10000)
	f := b.Func("main")
	f.Movi(isa.RegT0, 3)
	f.Label("loop")
	f.Addi(isa.RegT0, isa.RegT0, -1)
	f.Bne(isa.RegT0, isa.RegZero, "loop")
	f.Halt()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	br := p.Insts[2]
	if uint64(br.Imm) != 0x10000+1*isa.InstBytes {
		t.Fatalf("branch target = %x", br.Imm)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(0x10000)
	f := b.Func("main")
	f.Label("x")
	f.Label("x")
	if _, err := b.Link(); err == nil {
		t.Fatal("duplicate label must fail")
	}

	b2 := NewBuilder(0x10000)
	b2.Func("main").Jump("nowhere")
	if _, err := b2.Link(); err == nil {
		t.Fatal("undefined label must fail")
	}

	b3 := NewBuilder(0x10000)
	b3.Func("notmain").Halt()
	if _, err := b3.Link(); err == nil {
		t.Fatal("missing entry must fail")
	}

	b4 := NewBuilder(0x10000)
	b4.Func("main").Branch(isa.OpAdd, 1, 2, "x")
	if _, err := b4.Link(); err == nil {
		t.Fatal("non-branch op in Branch must fail")
	}
}

func TestInstAt(t *testing.T) {
	b := NewBuilder(0x10000)
	b.Func("main").Nop().Halt()
	p, _ := b.Link()
	if in, ok := p.InstAt(0x10000 + isa.InstBytes); !ok || in.Op != isa.OpHalt {
		t.Fatalf("InstAt = %v, %v", in, ok)
	}
	if _, ok := p.InstAt(0x10000 + 3); ok {
		t.Fatal("misaligned pc must fail")
	}
	if _, ok := p.InstAt(0x10000 + 2*isa.InstBytes); ok {
		t.Fatal("out-of-range pc must fail")
	}
	if _, ok := p.InstAt(0xf000); ok {
		t.Fatal("below code base must fail")
	}
}

func TestLoadSetsUpAddressSpace(t *testing.T) {
	b := NewBuilder(0x10000)
	b.Func("main").Movi(isa.RegT0, 1).Halt()
	b.Region("shadow", 0x60000000, mem.PageSize, mem.ProtRW, 1)
	b.Region("safe", 0x61000000, mem.PageSize, mem.ProtRW, 3)
	b.Data(0x60000000, []byte{0xAA, 0xBB})
	b.InitReg(isa.RegSP, 0x7fff0000)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	as, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	// Code is executable and contains the encoded program.
	if _, _, err := as.Translate(0x10000, mem.Exec); err != nil {
		t.Fatalf("code not executable: %v", err)
	}
	img, err := as.ReadVirtBytes(0x10000, isa.InstBytes)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(img)
	if err != nil || in.Op != isa.OpMovi {
		t.Fatalf("decoded %v, %v", in, err)
	}
	// Code must not be writable after load.
	if _, _, err := as.Translate(0x10000, mem.Write); err == nil {
		t.Fatal("code should be read-only")
	}
	// Regions carry their pKeys.
	pte, ok := as.Lookup(0x60000000)
	if !ok || pte.PKey != 1 {
		t.Fatalf("shadow pte %+v", pte)
	}
	pte, ok = as.Lookup(0x61000000)
	if !ok || pte.PKey != 3 {
		t.Fatalf("safe pte %+v", pte)
	}
	// Data was preloaded.
	bts, err := as.ReadVirtBytes(0x60000000, 2)
	if err != nil || bts[0] != 0xAA || bts[1] != 0xBB {
		t.Fatalf("data = %v, %v", bts, err)
	}
}

func TestLoadRejectsUnalignedRegion(t *testing.T) {
	b := NewBuilder(0x10000)
	b.Func("main").Halt()
	b.Region("bad", 0x60000100, mem.PageSize, mem.ProtRW, 1)
	p, _ := b.Link()
	if _, err := p.Load(); err == nil {
		t.Fatal("unaligned region must fail")
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder(0x10000)
	b.Func("main").Movi(isa.RegT0, 5).Halt()
	p, _ := b.Link()
	d := p.Disassemble()
	if !strings.Contains(d, "main:") || !strings.Contains(d, "movi r9, 5") {
		t.Fatalf("bad disassembly:\n%s", d)
	}
}

const sampleText = `
# sample program
.code 0x10000
.entry main
.region heap 0x20000000 0x1000 rw 0
.region shadow 0x60000000 0x1000 rw 1
.data 0x20000000 de ad
.word 0x20000100 0x1122334455667788
.initreg sp 0x7fff0000

main:
    movi t0, 10
    movi t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bne t0, zero, loop
    st t1, 0(gp)
    call leaf
    halt

leaf:
    rdpkru t2
    ret
`

func TestParseText(t *testing.T) {
	p, err := Parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x10000 {
		t.Fatalf("entry %x", p.Entry)
	}
	if len(p.Regions) != 2 || p.Regions[1].PKey != 1 {
		t.Fatalf("regions %+v", p.Regions)
	}
	if p.InitRegs[isa.RegSP] != 0x7fff0000 {
		t.Fatal("initreg sp")
	}
	if len(p.Data) != 2 || p.Data[0].Bytes[0] != 0xde {
		t.Fatalf("data %+v", p.Data)
	}
	if len(p.Data[1].Bytes) != 8 || p.Data[1].Bytes[7] != 0x11 {
		t.Fatalf("word data %+v", p.Data[1].Bytes)
	}
	// The bne must point back at "loop".
	var bne isa.Inst
	for _, in := range p.Insts {
		if in.Op == isa.OpBne {
			bne = in
		}
	}
	if uint64(bne.Imm) != p.Symbols["loop"] {
		t.Fatalf("bne target %x want %x", bne.Imm, p.Symbols["loop"])
	}
	// call resolves to leaf; ret is jalr r0,(ra).
	var sawCall, sawRet bool
	for _, in := range p.Insts {
		if in.Op == isa.OpJal && in.Rd == isa.RegRA && uint64(in.Imm) == p.Symbols["leaf"] {
			sawCall = true
		}
		if in.IsReturn() {
			sawRet = true
		}
	}
	if !sawCall || !sawRet {
		t.Fatal("call/ret not assembled")
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Every opcode's rendered form must reparse to the same instruction.
	// Each round gives every row random values for the fields its form
	// names (the rest stay zero) and spells a static target as a label.
	r := rand.New(rand.NewSource(1))
	reg := func() uint8 { return uint8(r.Intn(isa.NumRegs)) }
	var want []isa.Inst
	src := "main:\n"
	for round := 0; round < 8; round++ {
		for op := isa.Op(0); op.Valid(); op++ {
			in := isa.Inst{Op: op}
			for _, o := range op.Operands() {
				switch o {
				case isa.Rd:
					in.Rd = reg()
				case isa.Rs1:
					in.Rs1 = reg()
				case isa.Rs2:
					in.Rs2 = reg()
				case isa.Imm:
					in.Imm = r.Int63() - r.Int63()
				case isa.Mem:
					in.Rs1, in.Imm = reg(), r.Int63n(1<<16)-1<<15
				case isa.Target:
					in.Imm = 0x10000 // main
				}
			}
			want = append(want, in)
			src += "  " + in.Render("main") + "\n"
		}
	}
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != len(want) {
		t.Fatalf("count %d want %d", len(p.Insts), len(want))
	}
	for i := range want {
		if p.Insts[i] != want[i] {
			t.Fatalf("inst %d: %v != %v", i, p.Insts[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"main:\n  frobnicate r1\n",
		"main:\n  add r1, r2\n",          // wrong arity
		"main:\n  add r1, r2, r99\n",     // bad register
		"main:\n  ld r1, r2\n",           // bad memory operand
		"main:\n  beq r1, r2, missing\n", // undefined label
		"main:\n  beq r1, r2, \n",        // empty label
		".region x 0x1000 0x1000 rq 0\n", // bad prot
		".bogus 1\n",                     // unknown directive
		".data 0x1000 zz\n",              // bad hex
		"main:\nmain:\n  nop\n",          // duplicate label
		"  nop\n",                        // no entry label
		".initreg r99 5\nmain:\n  nop\n", // bad register
		".entry other\nmain:\n  nop\n",   // entry not defined
		"bad label: nop\n",               // label with space
		"main: .x: nop\n",                // label starting with a dot
		"main: a,b: nop\n",               // label with a comma
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParsedProgramLoads(t *testing.T) {
	p, err := Parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderEmitterSurface drives every convenience emitter once and
// checks the emitted opcodes (the workload generator and harnesses use
// these from other packages; this keeps asm's own coverage honest).
func TestBuilderEmitterSurface(t *testing.T) {
	b := NewBuilder(0x10000)
	b.SetEntry("start")
	b.DataSymbol(0x20000000, "start")
	b.Region("heap", 0x20000000, mem.PageSize, mem.ProtRW, 0)
	f := b.Func("start")
	if f.Name() != "start" {
		t.Fatal("Name")
	}
	f.Sub(1, 2, 3).Xor(4, 5, 6).Mul(7, 8, 9)
	f.Andi(1, 2, 3).Shli(4, 5, 6).Shri(7, 8, 9)
	f.St(1, 2, 8).Lb(3, 4, 0).Sb(5, 6, 1)
	f.Blt(1, 2, "tgt").Bge(3, 4, "tgt")
	f.Label("tgt")
	f.CallIndirect(9, 0)
	f.Rdcycle(10)
	f.Halt()
	if f.Len() != 14 {
		t.Fatalf("Len = %d", f.Len())
	}
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.Symbols["start"] {
		t.Fatal("SetEntry not honoured")
	}
	wantOps := []isa.Op{isa.OpSub, isa.OpXor, isa.OpMul, isa.OpAndi, isa.OpShli,
		isa.OpShri, isa.OpSt, isa.OpLb, isa.OpSb, isa.OpBlt, isa.OpBge,
		isa.OpJalr, isa.OpRdcycle, isa.OpHalt}
	for i, op := range wantOps {
		if p.Insts[i].Op != op {
			t.Fatalf("inst %d op %v, want %v", i, p.Insts[i].Op, op)
		}
	}
	// The data symbol resolved to the entry address.
	as, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := as.ReadVirt64(0x20000000)
	if v != p.Entry {
		t.Fatalf("data symbol = %#x, want %#x", v, p.Entry)
	}
	// Branch targets resolved to the label.
	if uint64(p.Insts[9].Imm) != p.CodeBase+11*isa.InstBytes {
		t.Fatalf("blt target %#x", p.Insts[9].Imm)
	}
}

func TestDataSymbolUndefined(t *testing.T) {
	b := NewBuilder(0x10000)
	b.DataSymbol(0x1000, "ghost")
	b.Func("main").Halt()
	if _, err := b.Link(); err == nil {
		t.Fatal("undefined data symbol must fail")
	}
}

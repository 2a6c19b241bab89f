package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpNamesRoundTrip(t *testing.T) {
	seen := map[string]Op{}
	for i := 0; i < NumOps; i++ {
		op := Op(i)
		name := op.Name()
		if name == "" {
			t.Fatalf("opcode %d has an empty mnemonic", i)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("opcodes %d and %d share mnemonic %q", prev, op, name)
		}
		seen[name] = op
		got, ok := OpByName(name)
		if !ok {
			t.Fatalf("OpByName(%q) not found", name)
		}
		if got != op {
			t.Fatalf("OpByName(%q) = %v, want %v", name, got, op)
		}
	}
}

func TestOpByNameUnknown(t *testing.T) {
	if _, ok := OpByName("bogus"); ok {
		t.Fatal("OpByName accepted unknown mnemonic")
	}
}

func TestOpValid(t *testing.T) {
	if !OpWrpkru.Valid() {
		t.Fatal("wrpkru should be valid")
	}
	if Op(200).Valid() {
		t.Fatal("op 200 should be invalid")
	}
}

func TestClassifiers(t *testing.T) {
	cases := []struct {
		op                         Op
		load, store, cond, control bool
	}{
		{OpLd, true, false, false, false},
		{OpLb, true, false, false, false},
		{OpSt, false, true, false, false},
		{OpSb, false, true, false, false},
		{OpBeq, false, false, true, true},
		{OpBge, false, false, true, true},
		{OpJal, false, false, false, true},
		{OpJalr, false, false, false, true},
		{OpAdd, false, false, false, false},
		{OpWrpkru, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load {
			t.Errorf("%v IsLoad = %v", c.op, c.op.IsLoad())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v IsStore = %v", c.op, c.op.IsStore())
		}
		if c.op.IsMem() != (c.load || c.store) {
			t.Errorf("%v IsMem = %v", c.op, c.op.IsMem())
		}
		if c.op.IsCondBranch() != c.cond {
			t.Errorf("%v IsCondBranch = %v", c.op, c.op.IsCondBranch())
		}
		if c.op.IsControl() != c.control {
			t.Errorf("%v IsControl = %v", c.op, c.op.IsControl())
		}
	}
}

func TestMemBytes(t *testing.T) {
	if OpLd.MemBytes() != 8 || OpSt.MemBytes() != 8 {
		t.Fatal("word ops must be 8 bytes")
	}
	if OpLb.MemBytes() != 1 || OpSb.MemBytes() != 1 {
		t.Fatal("byte ops must be 1 byte")
	}
	if OpAdd.MemBytes() != 0 {
		t.Fatal("non-memory op must report 0")
	}
}

// operandUse is every opcode's register use and static target, written
// from the opcode comments in isa.go rather than read from the opcode table.
var operandUse = []struct {
	op                               Op
	writesRd, rs1, rs2, staticTarget bool
}{
	{OpNop, false, false, false, false},
	{OpHalt, false, false, false, false},
	// rd = rs1 <op> rs2
	{OpAdd, true, true, true, false},
	{OpSub, true, true, true, false},
	{OpAnd, true, true, true, false},
	{OpOr, true, true, true, false},
	{OpXor, true, true, true, false},
	{OpShl, true, true, true, false},
	{OpShr, true, true, true, false},
	{OpMul, true, true, true, false},
	{OpDiv, true, true, true, false},
	// rd = rs1 <op> imm
	{OpAddi, true, true, false, false},
	{OpAndi, true, true, false, false},
	{OpOri, true, true, false, false},
	{OpXori, true, true, false, false},
	{OpShli, true, true, false, false},
	{OpShri, true, true, false, false},
	// rd = imm
	{OpMovi, true, false, false, false},
	// rd = mem[rs1+imm]; mem[rs1+imm] = rs2
	{OpLd, true, true, false, false},
	{OpSt, false, true, true, false},
	{OpLb, true, true, false, false},
	{OpSb, false, true, true, false},
	// compare rs1 with rs2, branch to the address in Imm
	{OpBeq, false, true, true, true},
	{OpBne, false, true, true, true},
	{OpBlt, false, true, true, true},
	{OpBge, false, true, true, true},
	// jal: link into rd, jump to Imm; jalr: link into rd, jump to rs1+imm
	{OpJal, true, false, false, true},
	{OpJalr, true, true, false, false},
	{OpWrpkru, false, true, false, false},  // PKRU = rs1
	{OpRdpkru, true, false, false, false},  // rd = PKRU
	{OpClflush, false, true, false, false}, // flush the line at rs1+imm
	{OpRdcycle, true, false, false, false}, // rd = cycle counter
}

func TestWritesReg(t *testing.T) {
	if len(operandUse) != NumOps {
		t.Fatalf("operandUse has %d rows, the ISA %d opcodes", len(operandUse), NumOps)
	}
	for i, c := range operandUse {
		if c.op != Op(i) {
			t.Fatalf("operandUse row %d is %v, want opcode %d", i, c.op, i)
		}
		if got := (Inst{Op: c.op, Rd: 5}).WritesReg(); got != c.writesRd {
			t.Errorf("%s with rd=r5: WritesReg = %v, want %v", c.op.Name(), got, c.writesRd)
		}
		if (Inst{Op: c.op, Rd: RegZero}).WritesReg() {
			t.Errorf("%s with rd=r0: a write to r0 is discarded", c.op.Name())
		}
	}
	for op := NumOps; op < 256; op++ {
		if (Inst{Op: Op(op), Rd: 5}).WritesReg() {
			t.Fatalf("undefined opcode %d writes a register", op)
		}
	}
}

func TestReadsOperands(t *testing.T) {
	for _, c := range operandUse {
		in := Inst{Op: c.op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 0x10000}
		if in.ReadsRs1() != c.rs1 || in.ReadsRs2() != c.rs2 {
			t.Errorf("%s: ReadsRs1, ReadsRs2 = %v, %v; want %v, %v",
				c.op.Name(), in.ReadsRs1(), in.ReadsRs2(), c.rs1, c.rs2)
		}
		target, ok := in.Target()
		if ok != c.staticTarget || (ok && target != 0x10000) {
			t.Errorf("%s: Target = %#x, %v; want static target %v", c.op.Name(), target, ok, c.staticTarget)
		}
	}
	for op := NumOps; op < 256; op++ {
		in := Inst{Op: Op(op), Rs1: 2, Rs2: 3}
		if in.ReadsRs1() || in.ReadsRs2() {
			t.Fatalf("undefined opcode %d reads a register", op)
		}
		if _, ok := in.Target(); ok {
			t.Fatalf("undefined opcode %d has a static target", op)
		}
	}
}

func TestCallReturnPredicates(t *testing.T) {
	call := Inst{Op: OpJal, Rd: RegRA, Imm: 0x10000}
	if !call.IsCall() {
		t.Fatal("jal ra is a call")
	}
	jump := Inst{Op: OpJal, Rd: RegZero, Imm: 0x10000}
	if jump.IsCall() {
		t.Fatal("jal r0 is a plain jump")
	}
	ret := Inst{Op: OpJalr, Rd: RegZero, Rs1: RegRA}
	if !ret.IsReturn() {
		t.Fatal("jalr r0, (ra) is a return")
	}
	icall := Inst{Op: OpJalr, Rd: RegRA, Rs1: RegT0}
	if !icall.IsCall() || icall.IsReturn() {
		t.Fatal("jalr ra, (t0) is an indirect call")
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -8}, "addi r1, r2, -8"},
		{Inst{Op: OpMovi, Rd: 9, Imm: 42}, "movi r9, 42"},
		{Inst{Op: OpLd, Rd: 9, Rs1: 2, Imm: 16}, "ld r9, 16(r2)"},
		{Inst{Op: OpSt, Rs1: 2, Rs2: 9, Imm: 16}, "st r9, 16(r2)"},
		{Inst{Op: OpWrpkru, Rs1: 5}, "wrpkru r5"},
		{Inst{Op: OpRdpkru, Rd: 5}, "rdpkru r5"},
		{Inst{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 0x100}, "beq r1, r2, 0x100"},
		{Inst{Op: OpJal, Rd: 1, Imm: 0x200}, "jal r1, 0x200"},
		{Inst{Op: OpClflush, Rs1: 4, Imm: 64}, "clflush 64(r4)"},
		{Inst{Op: OpSb, Rs1: 2, Rs2: 9, Imm: -1}, "sb r9, -1(r2)"},
		{Inst{Op: OpJalr, Rd: 0, Rs1: 1, Imm: 0}, "jalr r0, 0(r1)"},
		{Inst{Op: OpRdcycle, Rd: 7}, "rdcycle r7"},
		{Inst{Op: Op(200), Rd: 1, Rs1: 2, Rs2: 3, Imm: -4}, "op200 r1, r2, r3, -4"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func randInst(r *rand.Rand) Inst {
	return Inst{
		Op:  Op(r.Intn(NumOps)),
		Rd:  uint8(r.Intn(NumRegs)),
		Rs1: uint8(r.Intn(NumRegs)),
		Rs2: uint8(r.Intn(NumRegs)),
		Imm: r.Int63() - r.Int63(),
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		var buf [InstBytes]byte
		Encode(buf[:], in)
		out, err := Decode(buf[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	var buf [InstBytes]byte
	buf[0] = 250
	if _, err := Decode(buf[:]); err == nil {
		t.Fatal("expected error for invalid opcode")
	} else if !strings.Contains(err.Error(), "invalid opcode") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDecodeRejectsBadRegister(t *testing.T) {
	var buf [InstBytes]byte
	Encode(buf[:], Inst{Op: OpAdd})
	buf[2] = NumRegs
	if _, err := Decode(buf[:]); err == nil {
		t.Fatal("expected error for out-of-range register")
	}
}

func TestDecodeRejectsReservedBytes(t *testing.T) {
	var buf [InstBytes]byte
	Encode(buf[:], Inst{Op: OpAdd})
	buf[5] = 1
	if _, err := Decode(buf[:]); err == nil {
		t.Fatal("expected error for nonzero reserved bytes")
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestEncodeDecodeProgram(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prog := make([]Inst, 257)
	for i := range prog {
		prog[i] = randInst(r)
	}
	img := EncodeProgram(prog)
	if len(img) != len(prog)*InstBytes {
		t.Fatalf("image size %d", len(img))
	}
	got, err := DecodeProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if got[i] != prog[i] {
			t.Fatalf("inst %d mismatch: %v vs %v", i, got[i], prog[i])
		}
	}
}

func TestDecodeProgramErrors(t *testing.T) {
	if _, err := DecodeProgram(make([]byte, 5)); err == nil {
		t.Fatal("expected error for ragged image")
	}
	img := EncodeProgram([]Inst{{Op: OpNop}, {Op: OpAdd}})
	img[InstBytes] = 251 // corrupt second instruction opcode
	_, err := DecodeProgram(img)
	be, ok := err.(*ErrBadEncoding)
	if !ok {
		t.Fatalf("want *ErrBadEncoding, got %v", err)
	}
	if be.Off < InstBytes {
		t.Fatalf("error offset %d should point into second instruction", be.Off)
	}
}

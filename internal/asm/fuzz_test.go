package asm

import (
	"testing"

	"specmpk/internal/isa"
)

// FuzzParse checks the text assembler never panics, and that anything it
// accepts survives the Format/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(sampleText)
	f.Add("main:\n  nop\n")
	f.Add(".code 0x10000\n.entry main\nmain: movi r1, -1\n  wrpkru r1\n  halt\n")
	f.Add(".region x 0x1000 0x1000 rwx 3\nmain:\n  beq r1, r2, main\n")
	f.Add(".data 0x1000 de ad be ef\n.word 0x2000 7\nmain:\n  ld r5, 8(r2)\n")
	every := "main:\n" // one instruction of every opcode
	for op := isa.Op(0); op.Valid(); op++ {
		every += "  " + isa.Inst{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: -8}.Render("main") + "\n"
	}
	f.Add(every)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		out, err := Format(p)
		if err != nil {
			// Format only rejects out-of-text control targets, which Parse
			// cannot produce (it resolves labels within the program).
			t.Fatalf("Format rejected parser output: %v", err)
		}
		q, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(Format) failed:\n%s\n%v", out, err)
		}
		if len(q.Insts) != len(p.Insts) {
			t.Fatalf("round trip changed instruction count")
		}
		for i := range p.Insts {
			if q.Insts[i] != p.Insts[i] {
				t.Fatalf("round trip changed instruction %d", i)
			}
		}
	})
}

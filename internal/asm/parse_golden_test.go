package asm

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"specmpk/internal/isa"
)

var updateParse = flag.Bool("update", false, "rewrite testdata/parse.golden")

// operandPool holds the operand tokens the generated corpus draws from:
// every register spelling (aliases, t-registers, out-of-range numbers),
// decimal and hex integers with and without sign, well- and ill-formed
// memory operands, defined and undefined labels, and junk.
var operandPool = []string{
	"r0", "r1", "r5", "r17", "r31", "r32", "r99", "r-1", "r",
	"zero", "ra", "sp", "ssp", "gp", "a0", "a1", "a2", "a3", "a4",
	"t0", "t5", "t9", "t10", "tx",
	"0", "7", "-8", "0x10", "-0x20", "0b101", "0o17", "1_000",
	"18446744073709551615", "18446744073709551616", "-9223372036854775808", "12ab",
	"16(r2)", "(r3)", "-8(sp)", "0x40(t1)", "8(r99)", "8(x)", "8r2", "8(r2", "z(r1)", "()",
	"main", "lbl", "missing", "0x10000",
	"", "  ", "x:y",
}

// parseCorpus generates the fixed-seed line corpus TestParseGolden pins.
// Three parts: every opcode's String form with random fields (targets
// spelled as labels), one-operand mutations of those lines, and random
// mnemonic/operand mixes including the pseudo-instructions.
func parseCorpus() []string {
	r := rand.New(rand.NewSource(1))
	pick := func() string { return operandPool[r.Intn(len(operandPool))] }
	labels := []string{"main", "lbl", "missing"}
	var lines []string
	for op := 0; op < isa.NumOps; op++ {
		for k := 0; k < 12; k++ {
			in := isa.Inst{
				Op:  isa.Op(op),
				Rd:  uint8(r.Intn(isa.NumRegs)),
				Rs1: uint8(r.Intn(isa.NumRegs)),
				Rs2: uint8(r.Intn(isa.NumRegs)),
				Imm: r.Int63n(1<<20) - 1<<19,
			}
			mnem, ops, _ := strings.Cut(in.String(), " ")
			var args []string
			if ops != "" {
				args = strings.Split(ops, ", ")
			}
			for i, a := range args {
				if strings.HasPrefix(a, "0x") {
					args[i] = labels[r.Intn(len(labels))]
				}
			}
			lines = append(lines, mnem+" "+strings.Join(args, ", "))
			mut := append([]string(nil), args...)
			switch {
			case len(mut) > 0 && r.Intn(3) > 0:
				mut[r.Intn(len(mut))] = pick()
			case len(mut) > 0 && r.Intn(2) == 0:
				mut = mut[:len(mut)-1]
			default:
				mut = append(mut, pick())
			}
			lines = append(lines, mnem+" "+strings.Join(mut, ", "))
		}
	}
	mnems := []string{"call", "jmp", "ret", "frob", "ADD", "op7"}
	for op := 0; op < isa.NumOps; op++ {
		mnems = append(mnems, isa.Op(op).Name())
	}
	seps := []string{", ", ",", " , ", ",\t"}
	for _, m := range mnems {
		for k := 0; k < 40; k++ {
			args := make([]string, r.Intn(5))
			for i := range args {
				args[i] = pick()
			}
			gap := " "
			if r.Intn(4) == 0 {
				gap = "\t"
			}
			lines = append(lines, m+gap+strings.Join(args, seps[r.Intn(len(seps))]))
		}
	}
	return lines
}

// TestParseGolden pins the text assembler's language: each corpus line is
// assembled between the labels main and lbl, and its instruction fields or
// its error text are compared with testdata/parse.golden. Regenerate with
// `go test ./internal/asm -run ParseGolden -update` only when the language
// is meant to change.
func TestParseGolden(t *testing.T) {
	var b bytes.Buffer
	for _, line := range parseCorpus() {
		fmt.Fprintf(&b, "%q\t", line)
		p, err := Parse("main:\n" + line + "\nlbl:\n")
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		for i, in := range p.Insts {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s rd=%d rs1=%d rs2=%d imm=%d", in.Op.Name(), in.Rd, in.Rs1, in.Rs2, in.Imm)
		}
		b.WriteByte('\n')
	}
	const golden = "testdata/parse.golden"
	if *updateParse {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d drifted (regenerate with -update only on purpose):\ngot:  %s\nwant: %s", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("corpus has %d lines, %s %d", len(g), golden, len(w))
	}
}

package asm

import (
	"fmt"

	"specmpk/internal/isa"
)

// The paper's security analysis (§IX-B) assumes compiler support that makes
// every WRPKRU's value independent of speculation: the implicit source is
// produced by a load-immediate, with no branch between the immediate and
// the WRPKRU. CheckWrpkruDiscipline is that compiler check, run over linked
// programs: the workload generator and the attack gadgets are verified to
// satisfy it (tests), and specmpk-sim warns when a hand-written program
// does not.

// Violation describes one WRPKRU that breaks the discipline.
type Violation struct {
	PC     uint64
	Inst   isa.Inst
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("0x%x: %s: %s", v.PC, v.Inst, v.Reason)
}

// CheckWrpkruDiscipline scans the program for WRPKRU instructions whose
// source register is not an immediate produced in the same basic block.
// The analysis is conservative and purely static:
//
//   - walking backwards from the WRPKRU, the first write to its source
//     register must be an OpMovi;
//   - no label target, branch, call, or return may intervene (a control-flow
//     join could make the value path-dependent);
//   - no memory load may define the register (attacker-reachable data).
func CheckWrpkruDiscipline(p *Program) []Violation {
	// Collect every branch/jump target so basic-block boundaries are known.
	leaders := make(map[uint64]bool)
	for _, in := range p.Insts {
		if t, ok := in.Target(); ok {
			leaders[t] = true
		}
	}
	for _, addr := range p.Symbols {
		leaders[addr] = true
	}

	var out []Violation
	for i, in := range p.Insts {
		if in.Op != isa.OpWrpkru {
			continue
		}
		pc := p.CodeBase + uint64(i)*isa.InstBytes
		v := findImmediate(p, i, in.Rs1, leaders)
		if v != "" {
			out = append(out, Violation{PC: pc, Inst: in, Reason: v})
		}
	}
	return out
}

// findImmediate walks backwards from instruction index i looking for the
// defining write of register r; returns "" when the discipline holds.
func findImmediate(p *Program, i int, r uint8, leaders map[uint64]bool) string {
	if r == isa.RegZero {
		return "" // constant zero is trivially speculation-independent
	}
	for j := i - 1; j >= 0; j-- {
		pc := p.CodeBase + uint64(j)*isa.InstBytes
		in := p.Insts[j]
		if in.Op.IsControl() || in.Op == isa.OpHalt {
			return fmt.Sprintf("control flow at 0x%x precedes the defining write of r%d", pc, r)
		}
		if in.WritesReg() && in.Rd == r {
			if in.Op == isa.OpMovi {
				return ""
			}
			return fmt.Sprintf("r%d defined by %q at 0x%x, not a load-immediate", r, in.String(), pc)
		}
		// Falling into this instruction from elsewhere makes the walk
		// unsound; stop at block leaders.
		if leaders[pc] {
			return fmt.Sprintf("basic-block boundary at 0x%x precedes the defining write of r%d", pc, r)
		}
	}
	return fmt.Sprintf("no defining write of r%d before the WRPKRU", r)
}

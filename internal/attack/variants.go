package attack

import (
	"fmt"

	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mpk"
	"specmpk/internal/pipeline"
	"specmpk/internal/trace"
)

// This file holds the other two attack shapes the paper analyzes:
//
//   - Fig. 12(d): Spectre-BTI — the branch target buffer is trained so a
//     victim's indirect call transiently lands in a gadget containing the
//     permission-upgrading WRPKRU.
//   - §III-C: speculative buffer overflow — a store whose write permission
//     is only enabled transiently forwards a corrupted value to a younger
//     load, whose dependent access leaks the value.

// BuildBTIGadget assembles the Fig. 12(d) program. During training the
// victim's function pointer targets the gadget with a legal index, training
// the BTB; the attack call flushes the pointer and swaps it to a benign
// function, so the gadget only runs transiently — with the secret index.
func BuildBTIGadget(cfg Config) (*asm.Program, error) {
	b := probeProgram(cfg)

	const fptrAddr = heapBase + 0x200
	b.DataSymbol(fptrAddr, "gadget")

	f := b.Func("main")
	f.Movi(4, array2Base)
	f.Movi(5, array1Base)
	f.Movi(6, fptrAddr)
	f.Movi(27, disable)
	f.Wrpkru(27)

	// Flush the probe array.
	flushProbe(f)

	// Training: the indirect call site repeatedly jumps to the gadget with
	// the legal index, installing the gadget as the BTB target.
	f.Movi(9, int64(cfg.TrainRounds))
	f.Label("train")
	f.Movi(12, trainIndex)
	f.Call("victim")
	f.Addi(9, 9, -1)
	f.Bne(9, isa.RegZero, "train")

	// Attack: swap the pointer to the benign function, flush it (through
	// the usual dependency chain) so the indirect call's target resolves
	// slowly, and call with the secret index. The BTB still predicts the
	// gadget.
	b.DataSymbol(heapBase+0x300, "benign")
	f.Movi(20, heapBase+0x300)
	f.Ld(21, 20, 0)
	f.St(21, 6, 0) // fptr = benign
	f.Andi(22, 21, 0)
	for i := 0; i < 10; i++ {
		f.Mul(22, 22, 22)
	}
	f.Add(6, 6, 22)
	f.Clflush(6, 0)
	f.Movi(12, secretIndex)
	f.Call("victim")

	// Reload.
	reloadProbe(f)

	v := b.Func("victim")
	v.Addi(30, isa.RegRA, 0) // save RA (the indirect call relinks it)
	v.Ld(16, 6, 0)           // function pointer (slow when flushed)
	v.CallIndirect(16, 0)    // BTB-predicted: the gadget
	v.Addi(isa.RegRA, 30, 0)
	v.Ret()

	g := b.Func("gadget") // runs only transiently on the attack call
	leakSecret(g)
	g.Ret()

	be := b.Func("benign")
	be.Addi(23, 23, 1)
	be.Ret()

	return b.Link()
}

// RunBTI executes the Spectre-BTI variant and returns the probe result.
func RunBTI(mode pipeline.Mode, cfg Config) (Result, error) {
	prog, err := BuildBTIGadget(cfg)
	if err != nil {
		return Result{}, err
	}
	return runProbe(pipeline.DefaultConfig(), prog, mode, cfg)
}

// Probe runs prog on the base machine mcfg under mode for at most budget
// cycles and returns every load's latencies by virtual address, transient
// loads included: the measurement behind every flush+reload scenario. A
// run error comes back with the loads it recorded; a machine that could
// not be built returns nil loads.
func Probe(mcfg pipeline.Config, mode pipeline.Mode, prog *asm.Program, budget uint64) (trace.Loads, error) {
	mcfg.Mode = mode
	m, err := pipeline.New(mcfg, prog)
	if err != nil {
		return nil, err
	}
	loads := trace.Loads{}
	m.Events = loads
	return loads, m.Run(budget)
}

// runProbe runs a gadget program on the base machine mcfg under mode and
// collects probe-array latencies.
func runProbe(mcfg pipeline.Config, prog *asm.Program, mode pipeline.Mode, cfg Config) (Result, error) {
	loads, err := Probe(mcfg, mode, prog, 50_000_000)
	if err != nil {
		return Result{}, fmt.Errorf("attack: %v: %w", mode, err)
	}
	res := Result{Mode: mode, Cfg: cfg, Threshold: 120}
	for i := range res.Latency {
		// The reload loads are the final accesses to each entry, so the
		// last observation per index is the probe measurement.
		if lats := loads[array2Base+uint64(i)*ProbeStride]; len(lats) > 0 {
			res.Latency[i] = int(lats[len(lats)-1])
		}
	}
	return res, nil
}

// OverflowResult reports the speculative buffer-overflow experiment.
type OverflowResult struct {
	Mode pipeline.Mode
	// CorruptLeaked is true when the probe line indexed by the *attacker's
	// store value* was loaded at all — i.e. the transiently written value
	// forwarded into the victim's dataflow.
	CorruptLeaked bool
	// CorruptLatency is the last observed load latency of that line.
	CorruptLatency int
}

// RunOverflow builds and runs the §III-C speculative buffer overflow: the
// victim's slot lives in a write-disabled region; a mispredicted path
// transiently write-enables it, stores an attacker value, and reloads it —
// with store-to-load forwarding, the corrupt value flows into a dependent
// access. SpecMPK's PKRU Store Check suppresses the forwarding.
func RunOverflow(mode pipeline.Mode) (OverflowResult, error) {
	const (
		trainVal = 5    // stored legally during training
		corrupt  = 0xA7 // stored only transiently during the attack
	)
	b := probeProgram(Config{})

	writeDisable := int64(mpk.AllowAll.WithKey(SecretKey, mpk.Perm{WD: true}))

	f := b.Func("main")
	f.Movi(4, array2Base)
	f.Movi(5, array1Base)
	f.Movi(6, heapBase+0x100) // guard word
	f.Movi(27, writeDisable)
	f.Wrpkru(27)
	f.Movi(10, array2Base+corrupt*ProbeStride)
	f.Clflush(10, 0) // the tell-tale line starts cold

	// Training: the block runs architecturally with the harmless value
	// (the paper's Fig. 12(c) structure: the phases differ in the data,
	// not the code path).
	f.Movi(11, 1)
	f.St(11, 6, 0)
	f.Movi(9, 50)
	f.Label("train")
	f.Movi(12, trainVal)
	f.Call("victim")
	f.Addi(9, 9, -1)
	f.Bne(9, isa.RegZero, "train")

	// Arm: guard = 0 and flushed; the attacker value rides in r12.
	ArmGuard(f, 0)
	f.Movi(12, corrupt)
	f.Call("victim")
	f.Halt()

	v := b.Func("victim")
	v.Ld(16, 6, 0)
	v.Beq(16, isa.RegZero, "skip") // trained not-taken
	v.Movi(24, enable)
	v.Wrpkru(24)   // write-enable for the secure slot
	v.Sb(12, 5, 8) // the (speculative) overflow write
	v.Movi(24, writeDisable)
	v.Wrpkru(24)
	v.Lb(18, 5, 8)    // forwarded? then r18 = the stored value
	v.Shli(18, 18, 9) // dependent access reveals it
	v.Add(18, 18, 4)
	v.Ld(19, 18, 0)
	v.Label("skip")
	v.Ret()

	prog, err := b.Link()
	if err != nil {
		return OverflowResult{}, err
	}
	res, err := runProbe(pipeline.DefaultConfig(), prog, mode, Config{})
	if err != nil {
		return OverflowResult{}, err
	}
	lat := res.Latency[corrupt]
	return OverflowResult{Mode: mode, CorruptLeaked: lat > 0, CorruptLatency: lat}, nil
}

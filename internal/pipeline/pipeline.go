// Package pipeline implements the cycle-level out-of-order core the paper
// evaluates on: a MIPS-R10K-style superscalar with a physical register file,
// rename/architectural map tables, an active list, conservative memory
// disambiguation with store-to-load forwarding, a TAGE+BTB+RAS front end,
// split TLBs and a four-level cache hierarchy — configured per Table III.
//
// The WRPKRU microarchitecture is data: the designs differ only in a few
// verdicts (rename or serialize PKRU, where its rename slots live, the load
// and store checks, TLB-miss timing), and a Config's Mode selects one row of
// the policy table in policy.go. Five rows (paper §VII plus two extensions):
//
//   - ModeSerialized: WRPKRU drains the pipeline at rename and blocks rename
//     until it retires (models current hardware).
//   - ModeNonSecure: PKRU is renamed; WRPKRU executes speculatively with no
//     side-channel protection ("NonSecure SpecMPK").
//   - ModeSpecMPK: the paper's design — NonSecure plus the PKRU Load/Store
//     checks backed by the Disabling Counters, stall-until-retirement for
//     suspect loads, store-to-load-forwarding suppression, and deferred TLB
//     updates.
//   - ModeDelayUpgrade: Okapi-style — loads under a transient PKRU upgrade
//     delay until non-speculative; stores keep forwarding.
//   - ModeNoForward: SpecMPK's store-forwarding restriction alone.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"specmpk/internal/asm"
	"specmpk/internal/bpred"
	"specmpk/internal/cache"
	"specmpk/internal/core"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/stats"
	"specmpk/internal/tlb"
	"specmpk/internal/trace"
)

// Mode selects the WRPKRU microarchitecture: it indexes the policy table
// (policy.go). ParseMode maps policy names to Modes; Mode.String maps back.
// Specs and cache keys name the policy rather than storing the number.
type Mode int

const (
	// The three microarchitectures the paper evaluates.
	ModeSerialized Mode = iota
	ModeNonSecure
	ModeSpecMPK
	// ModeDelayUpgrade is the Okapi-style design (Schmitz et al.): PKRU is
	// renamed and WRPKRU executes speculatively, but a load permitted only
	// by a transient upgrade — the speculative PKRU allows its pKey while
	// the committed ARF_pkru forbids it — waits for the window head. No
	// Disabling Counters, no forwarding suppression, no TLB deferral.
	ModeDelayUpgrade
	// ModeNoForward is SpecMPK's Store Check alone: a suspect store loses
	// store-to-load forwarding and re-verifies at commit; loads never stall
	// on the Load Check and TLB misses walk at execute. It isolates the
	// cost of the §V-C2 forwarding restriction.
	ModeNoForward
)

// Config is the machine configuration (Table III defaults via DefaultConfig).
type Config struct {
	Mode Mode

	// Width applies to fetch, rename and retire (the paper's machine is
	// 8-wide issue/decode/commit).
	Width      int
	IssueWidth int

	ALSize  int // active list (ROB) entries
	IQSize  int // issue queue entries
	LQSize  int // load queue entries
	SQSize  int // store queue entries
	PRFSize int // physical registers

	ROBPkruSize int // ROB_pkru entries (SpecMPK / NonSecure)

	BTBEntries int
	RASEntries int

	// FrontendDepth is the fetch-to-rename latency in cycles (decode
	// stages); it sets the minimum branch misprediction penalty.
	FrontendDepth int

	// MemDepSpeculation lets loads issue before all older store addresses
	// are known (optimistic memory disambiguation). A store whose address
	// resolves against an already-executed younger load squashes from that
	// load and refetches — the memory-dependence-violation squash the
	// paper's §V-C2 discussion references. Violating load PCs enter a
	// small dependence-predictor blacklist and wait conservatively
	// afterwards (store-set-lite). Off by default: the Table III baseline
	// uses conservative disambiguation.
	MemDepSpeculation bool

	// StallSuspectStores is an ABLATION knob for the SpecMPK mode: stores
	// that fail the PKRU Store Check defer even their *address generation*
	// to retirement instead of executing with forwarding suppressed. The
	// paper's design deliberately lets such stores execute (§V-C2: "this
	// approach also facilitates address generation, enabling younger load
	// instructions to learn the physical address of older store
	// instructions and thereby reducing squash resulting from memory
	// dependence speculation"); this knob quantifies that choice when
	// combined with MemDepSpeculation.
	StallSuspectStores bool

	// MaxCycles is the machine's own cycle budget: Run, RunContext and
	// RunInsts never step past it regardless of the budget they are called
	// with (0 = no config-level budget). A run that exhausts it returns
	// ErrCycleLimit with Stats.Stop = StopCycleLimit, so a pathological
	// program (or an over-long job on the simulation server) terminates with
	// a distinct stop reason instead of looping forever.
	MaxCycles uint64

	// NoTLBDeferral is an ABLATION knob for the SpecMPK mode: it disables
	// the §V-C5 rule that conservatively stalls TLB-missing accesses until
	// retirement, letting them page-walk speculatively instead (the PKRU
	// checks still apply once the pKey is known). This trades away the
	// TLB side-channel protection to measure what the conservatism costs.
	NoTLBDeferral bool

	Caches cache.HierarchyConfig
	DTLB   tlb.Config
	ITLB   tlb.Config
}

// DefaultConfig returns the Table III configuration: 8-wide, AL/LQ/SQ/IQ/PRF
// = 352/128/72/160/280, ROB_pkru = 8, 4096-entry BTB, 32-entry RAS, LTAGE
// direction prediction, and the Table III cache hierarchy.
func DefaultConfig() Config {
	return Config{
		Mode:          ModeSpecMPK,
		Width:         8,
		IssueWidth:    8,
		ALSize:        352,
		IQSize:        160,
		LQSize:        128,
		SQSize:        72,
		PRFSize:       280,
		ROBPkruSize:   8,
		BTBEntries:    4096,
		RASEntries:    32,
		FrontendDepth: 3,
		Caches:        cache.DefaultHierarchyConfig(),
		DTLB:          tlb.DefaultDataConfig(),
		ITLB:          tlb.DefaultInstConfig(),
	}
}

// Upper bounds on the sizes New allocates from a Config. Configs arrive from
// clients (api.JobSpec.Config), so without them one request could make a
// worker allocate arbitrarily large arrays. Each sits far above Table III and
// every shape WindowSweep builds (at most AL 352, PRF 280).
const (
	maxWidth         = 64      // fetch/rename/retire and issue width
	maxFrontendDepth = 64      // decode stages; with the width, sizes the fetch queue
	maxWindow        = 1 << 12 // AL, IQ, LQ, SQ, PRF and ROB_pkru entries
	maxBTBEntries    = 1 << 16
	maxTLBEntries    = 1 << 16
	maxCacheLines    = 1 << 18 // per cache level
)

// Validate reports whether New can build c: a Mode with a policy, structure
// sizes between their lower bounds and the fixed upper bounds above. Set and
// line geometry is checked by the cache, TLB and BTB constructors.
func (c Config) Validate() error {
	if !c.Mode.valid() {
		return fmt.Errorf("pipeline: mode %d has no policy (valid: %s)",
			int(c.Mode), strings.Join(PolicyNames(), ", "))
	}
	minROBPkru := 0
	if policies[c.Mode].renamesPKRU {
		minROBPkru = 1
	}
	for _, f := range [...]struct {
		name      string
		v, lo, hi int
	}{
		{"Width", c.Width, 1, maxWidth},
		{"IssueWidth", c.IssueWidth, 1, maxWidth},
		{"FrontendDepth", c.FrontendDepth, 0, maxFrontendDepth},
		{"ALSize", c.ALSize, 1, maxWindow},
		{"IQSize", c.IQSize, 1, maxWindow},
		{"LQSize", c.LQSize, 1, maxWindow},
		{"SQSize", c.SQSize, 1, maxWindow},
		{"PRFSize", c.PRFSize, isa.NumRegs + c.Width, maxWindow},
		{"ROBPkruSize", c.ROBPkruSize, minROBPkru, maxWindow},
		{"BTBEntries", c.BTBEntries, 1, maxBTBEntries},
		{"RASEntries", c.RASEntries, 1, bpred.MaxRAS},
		{"DTLB.Entries", c.DTLB.Entries, 1, maxTLBEntries},
		{"ITLB.Entries", c.ITLB.Entries, 1, maxTLBEntries},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("pipeline: %s = %d outside [%d, %d]", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.Caches.LineB == 0 {
		return nil // cache.NewHierarchy builds the Table III hierarchy
	}
	for _, l := range [...]cache.Config{c.Caches.L1I, c.Caches.L1D, c.Caches.L2, c.Caches.L3} {
		line := l.LineB
		if line == 0 {
			line = c.Caches.LineB
		}
		if line > 0 && l.SizeB/line > maxCacheLines {
			return fmt.Errorf("pipeline: cache %s holds %d lines, above %d", l.Name, l.SizeB/line, maxCacheLines)
		}
	}
	return nil
}

// StopReason records why a run returned (Stats.Stop). It is a plain string
// so it serializes readably in stats JSON and server job results.
type StopReason string

// The stop reasons Run/RunContext/RunInsts report.
const (
	// StopNone: the machine has not finished a run yet.
	StopNone StopReason = ""
	// StopHalt: the program retired its HALT.
	StopHalt StopReason = "halt"
	// StopFault: a fault terminated the program at retirement.
	StopFault StopReason = "fault"
	// StopCycleLimit: the cycle budget (Run's argument or Config.MaxCycles)
	// expired first.
	StopCycleLimit StopReason = "cycle_limit"
	// StopInstLimit: RunInsts or RunContext retired its instruction target.
	StopInstLimit StopReason = "inst_limit"
	// StopCancelled: RunContext's context was cancelled mid-run.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: RunContext's context expired (context.DeadlineExceeded)
	// mid-run — the wall-clock budget, not the cycle budget, ended the run.
	// Unlike StopCycleLimit the partial statistics are host-dependent (how
	// far the run got depends on machine speed), so servers must not cache
	// deadline-stopped results.
	StopDeadline StopReason = "deadline"
)

// Stats are the counters a run accumulates.
type Stats struct {
	Cycles uint64
	Insts  uint64 // retired instructions

	// Stop is why the last Run/RunContext/RunInsts call returned.
	Stop StopReason `json:"stopReason,omitempty"`

	Fetched  uint64
	Renamed  uint64
	IssuedN  uint64
	Squashed uint64

	Branches    uint64
	Mispredicts uint64
	Calls       uint64
	Returns     uint64

	Loads  uint64 // retired
	Stores uint64 // retired
	Wrpkru uint64 // retired
	Rdpkru uint64 // retired

	// RenameStallCycles counts cycles in which the rename stage wanted to
	// rename at least one instruction but renamed none.
	RenameStallCycles uint64
	// SerializeStallCycles is the subset of rename stalls attributable to
	// WRPKRU/RDPKRU serialization (Fig. 3's second series).
	SerializeStallCycles uint64
	// PkruFullStallCycles is the subset caused by a full ROB_pkru (Fig. 11).
	PkruFullStallCycles uint64

	LoadsStalledTillHead uint64 // PKRU Load Check failures + TLB-miss defers
	StoresNoForward      uint64 // PKRU Store Check failures
	LoadsForwarded       uint64
	ForwardBlockedLoads  uint64 // loads that hit a no-forward store
	MemOrderViolations   uint64 // memdep-speculation squashes

	PkeyFaults uint64
	Faults     uint64

	// CPI attributes every cycle to exactly one stack bucket, so
	// CPI.Sum() == Cycles always holds (the accounting runs once per Step).
	CPI CPIStack
}

// CPIStack is the per-cycle attribution the CPI-stack accounting pass
// maintains: each simulated cycle lands in exactly one bucket, so the
// Serialized-vs-SpecMPK gap decomposes into causes instead of being a single
// opaque IPC delta.
type CPIStack struct {
	// Base: cycles that retired at least one instruction, plus stalls on
	// non-memory execution latency (the useful-work baseline).
	Base uint64 `json:"base"`
	// Frontend: the window is empty and fetch/decode has not delivered.
	Frontend uint64 `json:"frontend"`
	// Serialize: rename blocked by WRPKRU/RDPKRU serialization (the
	// serialized machine's drain, or RDPKRU waiting out in-flight WRPKRUs).
	Serialize uint64 `json:"serialize"`
	// PkruFull: rename blocked because ROB_pkru is full (Fig. 11's limiter).
	PkruFull uint64 `json:"rob_pkru_full"`
	// Memory: the oldest instruction is a load/store still waiting on the
	// memory system (including SpecMPK stall-till-head replays).
	Memory uint64 `json:"memory"`
	// SquashRecovery: post-squash refill bubbles (empty window inside the
	// redirect shadow).
	SquashRecovery uint64 `json:"squash_recovery"`
}

// Sum returns the total attributed cycles; it equals Stats.Cycles.
func (c CPIStack) Sum() uint64 {
	return c.Base + c.Frontend + c.Serialize + c.PkruFull + c.Memory + c.SquashRecovery
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per retired branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// WrpkruPerKilo returns retired WRPKRU per 1000 retired instructions.
func (s Stats) WrpkruPerKilo() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.Wrpkru) / float64(s.Insts)
}

// state of an active-list entry.
type alState uint8

const (
	stWaiting alState = iota
	stIssued
	stDone
)

const noReg = -1

// alEntry is one in-flight instruction.
type alEntry struct {
	seq uint64
	pc  uint64
	in  isa.Inst
	st  alState
	// alIdx is the entry's own active-list slot (set once at rename), so
	// code holding only the entry pointer can maintain the scheduler's
	// bitmaps.
	alIdx int32
	done  uint64 // cycle the result becomes visible

	fetchCyc  uint64
	renameCyc uint64
	issueCyc  uint64

	// Renaming.
	newPhys int // physical destination or noReg
	physRs1 int
	physRs2 int

	// Control flow. rasCkpt indexes the machine's RAS-checkpoint pool
	// (rasCkpts) rather than embedding the checkpoint: consecutive
	// instructions share a checkpoint unless one of them pushed or popped
	// the RAS, so pooling turns a 500+-byte copy per in-flight instruction
	// into one copy per call/return.
	predTaken  bool
	predTarget uint64
	hasDir     bool
	dir        bpred.DirState
	rasCkpt    int
	actTaken   bool
	actTarget  uint64

	// PKRU.
	pkruDst int // ROB_pkru entry written by this WRPKRU, else -1
	// pkruDepSeq is the sequence number of the youngest older WRPKRU this
	// instruction must wait for (0 = none in flight at rename). Sequence
	// numbers are used instead of ROB_pkru tags for the wakeup condition
	// because a tag's slot can be recycled after retirement — the staleness
	// hazard the paper's dedicated-register-file design addresses (§V-B1).
	pkruDepSeq uint64

	// Memory.
	isLoad, isStore bool
	addrReady       bool
	vaddr           uint64
	paddr           uint64
	memBytes        int
	pkey            int
	storeData       uint64
	noForward       bool // SpecMPK: store-to-load forwarding suppressed
	stallTillHead   bool // execute only at AL head
	reissued        bool
	tlbDeferred     bool // SpecMPK: TLB fill deferred to retirement

	fault *mem.Fault // delivered at retirement

	// Event bookkeeping. The upgrade fields are written only when
	// Machine.Events is attached.
	stallCyc uint64 // cycle a stall/no-forward/defer window opened
	upgCyc   uint64 // cycle this WRPKRU's transient-upgrade window opened
	upgMask  uint16 // pkeys this WRPKRU transiently upgrades vs the ARF
}

// FaultAction mirrors funcsim's fault-handler verdicts.
type FaultAction int

// Fault-handler verdicts.
const (
	FaultStop FaultAction = iota
	FaultRetry
	FaultSkip
)

// Machine is one out-of-order core bound to a loaded program.
type Machine struct {
	Cfg  Config
	Prog *asm.Program
	AS   *mem.AddressSpace

	// pol is Cfg.Mode's row of the policy table; the stage functions read
	// its verdicts wherever the WRPKRU designs differ.
	pol policy

	Stats Stats

	// Hier, DTLB, ITLB expose the memory system for inspection
	// (the attack harness probes cache residency through timed loads, and
	// tests probe directly).
	Hier *cache.Hierarchy
	DTLB *tlb.TLB
	ITLB *tlb.TLB

	// PKRUState is the SpecMPK hardware (also used, without its checks, by
	// the NonSecure mode; the serialized mode only uses its ARF).
	PKRUState *core.State

	// OnLoadLatency observes every executed load (including transient
	// ones) with its observed latency — the measurement hook the
	// flush+reload harness uses (Fig. 13).
	OnLoadLatency func(vaddr uint64, lat int)
	// OnTrace, when set, receives every retired (architecturally
	// committed) instruction in program order with its per-stage
	// timestamps — the one per-retire hook behind the retire log, the
	// Konata export and the pipeline diagram (cmd/specmpk-sim -trace,
	// -konata-out, -pipeview).
	OnTrace func(trace.Record)
	// FaultHandler is consulted when a fault reaches retirement.
	FaultHandler func(f *mem.Fault, pkru *mpk.PKRU) FaultAction

	// Events, when non-nil, receives the core's one event stream: squashes,
	// WRPKRU retirements, transient PKRU-upgrade windows, loads held to the
	// window head and their replays, forwarding suppression, deferred TLB
	// fills (see trace.Kind). A trace.Ring keeps it for JSONL export
	// (cmd/specmpk-sim -trace-out); internal/profile's Ledger tallies it
	// per protection key; trace.Fanout feeds both. Nil disables the layer
	// entirely.
	Events trace.Sink

	// Prof, when non-nil, receives the per-PC profiler feed: every cycle's
	// CPI-stack attribution together with the program location responsible,
	// and every retired PC (see ProfileSink; internal/profile implements
	// it). Nil disables the layer entirely.
	Prof ProfileSink

	// Front end.
	tage *bpred.TAGE
	btb  *bpred.BTB
	ras  *bpred.RAS

	// RAS-checkpoint pool: the RAS only changes on calls and returns, so
	// consecutive instructions share one checkpoint. Fetch appends a pool
	// entry per RAS mutation (rasCheckpoint) and in-flight instructions carry
	// pool indices; a squash restore rewinds the cursor along with the RAS
	// (rasRestore), which is what bounds the pool: between the oldest live
	// index and rasCur there is at most one entry per in-flight call/return,
	// so a pool sized AL + fetch queue + 2 can never overwrite a live entry.
	rasCkpts []bpred.RASCheckpoint
	rasCur   int

	pc           uint64
	fetchStopped bool // saw HALT (or unrecoverable fetch fault)
	fetchStallTo uint64

	// Fetch/decode queue: a fixed ring sized at New (fetch width times the
	// decode depth plus one), so the steady-state fetch path never allocates.
	fq     []fqEntry
	fqHead int
	fqLen  int

	// Rename structures.
	rmt      [isa.NumRegs]int
	amt      [isa.NumRegs]int
	prf      []uint64
	prfReady []bool
	freeList []int

	// Active list (circular).
	al     []alEntry
	alHead int
	alTail int
	alCnt  int

	lqCnt, sqCnt int
	// iqCnt counts active-list entries still waiting to issue (st ==
	// stWaiting), maintained incrementally so the rename stage's issue-queue
	// occupancy check is O(1) instead of a per-cycle window walk.
	iqCnt int
	// The event-driven scheduler's bitmaps, one bit per physical
	// active-list slot (regWaiters: one row of such words per physical
	// register). sched.go describes what sets and clears each.
	iqBits, readyBits, pkruWait, issuedBits, sqUnresolvedBits slotBits
	regWaiters                                                []uint64
	// sqUnresolved counts in-flight stores whose address is still unknown
	// (addrReady false, no fault). Zero lets a load skip the conservative
	// disambiguation check entirely — it could not find anything.
	sqUnresolved int
	// nextDone is a lower bound on the earliest completion cycle of any
	// stIssued entry (noDone when none): the complete stage returns
	// immediately on cycles before it, and the idle fast-forward uses it as
	// the next-event horizon. Squashes reset it to the current cycle (forcing
	// one recomputing walk) rather than tracking the removed entries.
	nextDone uint64

	seq        uint64
	cycle      uint64
	halted     bool
	fault      *mem.Fault
	curICLine  uint64 // last fetched I-cache line+1 (0 = none)
	serialWait bool   // serialized mode: WRPKRU in flight blocks rename

	// lastRenamedWrpkruSeq is the seq of the youngest renamed-and-surviving
	// WRPKRU; consumers capture it as their pkruDepSeq.
	lastRenamedWrpkruSeq uint64
	// violators is the dependence predictor's blacklist: load PCs that
	// caused a memory-order violation wait conservatively from then on.
	violators map[uint64]bool
	// wrpkruExecHighwater is the highest seq of any executed WRPKRU.
	// Because WRPKRUs execute in program order, pkruDepSeq <= highwater
	// means every older WRPKRU has executed.
	wrpkruExecHighwater uint64

	// CPI-stack accounting (one bucket per Step; see accountCycle).
	retiredThisCycle int
	renameBlock      stallReason // why rename made no progress this cycle
	renameBlockPC    uint64      // PC of the instruction rename blocked on
	firstRetiredPC   uint64      // oldest PC retired this cycle
	recoverUntil     uint64      // squash-redirect shadow end cycle

	// Idle fast-forward bookkeeping (fastpath.go): progressed records
	// whether any stage changed machine state this Step (beyond the per-cycle
	// counters), renameWanted whether rename had a ready instruction it could
	// not rename, and lastBucket the CPI bucket accountCycle attributed the
	// cycle to — exactly what a batch of identical stall cycles must repeat.
	progressed   bool
	renameWanted bool
	lastBucket   CPIBucket

	// Batched load-latency histogram: plain integer bucket counters bumped
	// on the hot path, materialized into a stats HistValue only at snapshot
	// time (StatsRegistry registers them via HistogramFunc).
	loadLatCounts [len(loadLatBounds) + 1]uint64
	loadLatSum    uint64
	loadLatN      uint64

	// reg is the lazily built unified metrics registry over this machine
	// (StatsRegistry).
	reg *stats.Registry
}

// noDone is nextDone's value when no issued entry awaits completion.
const noDone = ^uint64(0)

type fqEntry struct {
	pc        uint64
	in        isa.Inst
	readyAt   uint64
	fetchedAt uint64
	// badFetch marks a faulting fetch marker (pc off the text segment), so
	// rename can recognize it without a second program lookup.
	badFetch bool

	predTaken  bool
	predTarget uint64
	hasDir     bool
	dir        bpred.DirState
	rasCkpt    int // RAS-checkpoint pool index (see Machine.rasCkpts)
}

// New loads prog and builds a machine.
func New(cfg Config, prog *asm.Program) (*Machine, error) {
	as, err := prog.Load()
	if err != nil {
		return nil, err
	}
	return NewWithState(cfg, prog, as, nil, mpk.AllowAll, prog.Entry)
}

// NewWithState builds a machine resuming from a checkpointed architectural
// state: an existing address space (typically fast-forwarded by the
// functional simulator), a register file (nil for the program's initial
// registers), a committed PKRU, and a start pc. This is how SimPoint
// intervals are simulated in detail from the middle of a program.
func NewWithState(cfg Config, prog *asm.Program, as *mem.AddressSpace,
	regs *[isa.NumRegs]uint64, pkru mpk.PKRU, pc uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol := policies[cfg.Mode]
	pkruEntries := cfg.ROBPkruSize
	if pol.pkruInPRF {
		pkruEntries = cfg.ALSize
	}
	hier, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	dtlb, err := tlb.New(cfg.DTLB)
	if err != nil {
		return nil, fmt.Errorf("pipeline: DTLB: %w", err)
	}
	itlb, err := tlb.New(cfg.ITLB)
	if err != nil {
		return nil, fmt.Errorf("pipeline: ITLB: %w", err)
	}
	btb, err := bpred.NewBTB(cfg.BTBEntries)
	if err != nil {
		return nil, err
	}
	fqCap := cfg.Width * (cfg.FrontendDepth + 1)
	alWords := (cfg.ALSize + 63) / 64
	m := &Machine{
		Cfg:       cfg,
		pol:       pol,
		Prog:      prog,
		AS:        as,
		Hier:      hier,
		DTLB:      dtlb,
		ITLB:      itlb,
		PKRUState: core.New(core.Config{ROBSize: max(pkruEntries, 1)}),
		tage:      bpred.NewTAGE(),
		btb:       btb,
		ras:       bpred.NewRAS(cfg.RASEntries),
		pc:        pc,
		prf:       make([]uint64, cfg.PRFSize),
		prfReady:  make([]bool, cfg.PRFSize),
		al:        make([]alEntry, cfg.ALSize),
		fq:        make([]fqEntry, fqCap),
		rasCkpts:  make([]bpred.RASCheckpoint, cfg.ALSize+fqCap+2),
		nextDone:  noDone,

		iqBits:           make(slotBits, alWords),
		readyBits:        make(slotBits, alWords),
		pkruWait:         make(slotBits, alWords),
		issuedBits:       make(slotBits, alWords),
		sqUnresolvedBits: make(slotBits, alWords),
		regWaiters:       make([]uint64, cfg.PRFSize*alWords),
	}
	m.rasCkpts[0] = m.ras.Checkpoint()
	m.PKRUState.SetARF(pkru)
	if cfg.MemDepSpeculation {
		m.violators = make(map[uint64]bool)
	}
	// Architectural registers live in phys 0..31 initially.
	for r := 0; r < isa.NumRegs; r++ {
		m.rmt[r] = r
		m.amt[r] = r
		m.prfReady[r] = true
	}
	if regs != nil {
		for r := 0; r < isa.NumRegs; r++ {
			m.prf[r] = regs[r]
		}
		m.prf[isa.RegZero] = 0
	} else {
		for r, v := range prog.InitRegs {
			m.prf[r] = v
		}
	}
	// Preallocate the free list at full PRF capacity: squash and retire push
	// registers back with plain appends, and a capacity that can hold every
	// physical register guarantees those pushes never reallocate.
	m.freeList = make([]int, 0, cfg.PRFSize)
	for p := isa.NumRegs; p < cfg.PRFSize; p++ {
		m.freeList = append(m.freeList, p)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Fetch-queue ring

// fqPush appends a slot at the tail and returns it; the caller overwrites it
// entirely. Callers check fqFull first.
func (m *Machine) fqPush() *fqEntry {
	i := m.fqHead + m.fqLen
	if i >= len(m.fq) {
		i -= len(m.fq)
	}
	m.fqLen++
	return &m.fq[i]
}

// fqFront returns the oldest queued entry. The pointer stays valid until the
// next fqPush, which cannot happen before the fetch stage runs — rename (the
// only consumer) finishes with the entry first.
func (m *Machine) fqFront() *fqEntry { return &m.fq[m.fqHead] }

// fqPop removes the oldest entry.
func (m *Machine) fqPop() {
	m.fqHead++
	if m.fqHead == len(m.fq) {
		m.fqHead = 0
	}
	m.fqLen--
}

// fqClear empties the queue (squash redirect).
func (m *Machine) fqClear() { m.fqHead, m.fqLen = 0, 0 }

// RunInsts steps until n instructions have retired (or HALT/fault/cycle
// budget): RunContext without a context.
func (m *Machine) RunInsts(n, maxCycles uint64) error {
	return m.run(context.Background(), n, maxCycles)
}

// clampBudget folds the config-level cycle budget into a caller's budget.
func (m *Machine) clampBudget(maxCycles uint64) uint64 {
	if m.Cfg.MaxCycles > 0 && m.Cfg.MaxCycles < maxCycles {
		return m.Cfg.MaxCycles
	}
	return maxCycles
}

// Halted reports whether the program has retired its HALT.
func (m *Machine) Halted() bool { return m.halted }

// Fault returns the fault that terminated the run, if any.
func (m *Machine) Fault() *mem.Fault { return m.fault }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// ArchReg reads the committed architectural value of register r.
func (m *Machine) ArchReg(r int) uint64 { return m.prf[m.amt[r]] }

// ArchRegs returns the committed architectural register file.
func (m *Machine) ArchRegs() [isa.NumRegs]uint64 {
	var out [isa.NumRegs]uint64
	for r := 0; r < isa.NumRegs; r++ {
		out[r] = m.prf[m.amt[r]]
	}
	return out
}

// PKRU returns the committed PKRU.
func (m *Machine) PKRU() mpk.PKRU { return m.PKRUState.ARF() }

// FreeRegCount returns the free-list depth (invariant: after the pipeline
// drains, free + architectural registers == PRF size).
func (m *Machine) FreeRegCount() int { return len(m.freeList) }

// Predictors exposes the direction predictor and BTB so a functional-warming
// pass (SimPoint) can train them before detailed simulation starts.
func (m *Machine) Predictors() (*bpred.TAGE, *bpred.BTB) { return m.tage, m.btb }

// WarmRAS seeds the return-address stack from a checkpointed call stack,
// oldest frame first, and re-anchors the baseline RAS checkpoint so squashes
// rewind to the warmed stack rather than an empty one. It is only
// meaningful before the first Step — it is the RAS half of a SimPoint
// checkpoint restore (the branch-history half replays through Predictors).
func (m *Machine) WarmRAS(stack []uint64) {
	for _, addr := range stack {
		m.ras.Push(addr)
	}
	m.rasCkpts[m.rasCur] = m.ras.Checkpoint()
}

// InFlight returns the number of active-list entries currently occupied.
func (m *Machine) InFlight() int { return m.alCnt }

// ErrCycleLimit is returned by Run when the cycle budget expires first.
var ErrCycleLimit = fmt.Errorf("pipeline: cycle limit reached")

// Run steps the machine until HALT retires, a fault terminates the program,
// or the cycle budget (the smaller of maxCycles and Config.MaxCycles, when
// set) elapses. Stats.Stop records which of those ended the run.
func (m *Machine) Run(maxCycles uint64) error {
	return m.run(context.Background(), ^uint64(0), maxCycles)
}

// ctxCheckInterval is how often (in cycles) RunContext polls its context.
// 1024 cycles is ~1 µs of wall time per poll-free stretch, so cancellation
// lands long before one server stats interval while keeping the hot loop
// free of per-cycle channel operations.
const ctxCheckInterval = 1024

// RunContext steps until maxInsts instructions have retired (^uint64(0)
// for no target), HALT retires, a fault terminates the program, or the
// cycle budget elapses — with cooperative cancellation: the context is
// polled every ctxCheckInterval cycles and its end surfaces as ctx.Err()
// with Stats.Stop = StopCancelled (or StopDeadline). This is the seam the
// simulation server uses for DELETE /v1/jobs/{id}, wall-clock deadlines and
// shutdown, for whole-program runs and SimPoint intervals alike.
func (m *Machine) RunContext(ctx context.Context, maxInsts, maxCycles uint64) error {
	return m.run(ctx, maxInsts, maxCycles)
}

// run is the one step loop behind Run, RunContext and RunInsts: it steps
// until HALT retires, n instructions have retired, a fault terminates the
// program, the cycle budget elapses, or ctx is done, and records which in
// Stats.Stop. When several hold at once the first of that list wins.
func (m *Machine) run(ctx context.Context, n, maxCycles uint64) error {
	maxCycles = m.clampBudget(maxCycles)
	done := ctx.Done()
	// The poll schedule is a moving target rather than a modulo so that idle
	// fast-forward skips (which land the cycle counter on arbitrary values)
	// cannot starve the cancellation check.
	nextPoll := m.cycle
	for m.cycle < maxCycles && m.Stats.Insts < n && !m.halted && m.fault == nil {
		if done != nil && m.cycle >= nextPoll {
			nextPoll = m.cycle + ctxCheckInterval
			select {
			case <-done:
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					m.Stats.Stop = StopDeadline
				} else {
					m.Stats.Stop = StopCancelled
				}
				return ctx.Err()
			default:
			}
		}
		m.stepFast(maxCycles)
	}
	switch {
	case m.halted:
		m.Stats.Stop = StopHalt
		return nil
	case m.Stats.Insts >= n:
		m.Stats.Stop = StopInstLimit
		return nil
	case m.fault != nil:
		m.Stats.Stop = StopFault
		return m.fault
	}
	m.Stats.Stop = StopCycleLimit
	return ErrCycleLimit
}

// Step advances one cycle. Stage order within the cycle is back to front so
// same-cycle structural hazards resolve conservatively.
func (m *Machine) Step() {
	m.cycle++
	m.Stats.Cycles++
	m.retiredThisCycle = 0
	m.renameBlock = stallNone
	m.renameWanted = false
	m.progressed = false
	m.completeStage()
	m.retireStage()
	m.issueStage()
	m.renameStage()
	m.fetchStage()
	m.accountCycle()
}

// accountCycle attributes the cycle just simulated to exactly one CPI-stack
// bucket. Precedence: retired work beats every stall; PKRU serialization and
// ROB_pkru capacity beat the generic causes (they are what the paper's
// figures single out); a non-empty window attributes to its oldest
// instruction (memory vs execution latency); an empty window is a squash
// bubble inside the redirect shadow, frontend starvation otherwise.
//
// When a ProfileSink is attached, the same single-bucket attribution is
// forwarded together with the responsible PC (see ProfileSink for the
// per-bucket PC rule), so a sink's per-PC sums reconstruct Stats.CPI exactly.
func (m *Machine) accountCycle() {
	c := &m.Stats.CPI
	b := BucketBase
	var pc uint64
	switch {
	case m.retiredThisCycle > 0:
		c.Base++
		pc = m.firstRetiredPC
	case m.renameBlock == stallSerialize:
		c.Serialize++
		b = BucketSerialize
		if m.Prof != nil {
			pc = m.serializeSitePC()
		}
	case m.renameBlock == stallPkruFull:
		c.PkruFull++
		b = BucketPkruFull
		pc = m.renameBlockPC
	case m.alCnt > 0:
		e := m.alAt(0)
		if e.isLoad || e.isStore {
			c.Memory++
			b = BucketMemory
		} else {
			c.Base++
		}
		pc = e.pc
	case m.cycle <= m.recoverUntil:
		c.SquashRecovery++
		b = BucketSquashRecovery
		pc = m.pc
	default:
		c.Frontend++
		b = BucketFrontend
		pc = m.pc
	}
	m.lastBucket = b
	if m.Prof != nil {
		m.Prof.CycleAttributed(b, pc)
	}
}

// alAt returns the entry at ring offset i from head (0 = oldest). Offsets are
// always < len(al) and head wraps below len(al), so a single conditional
// subtract replaces the modulo — this is the hottest address computation in
// the simulator and an integer divide here dominated the seed profile.
func (m *Machine) alAt(i int) *alEntry {
	i += m.alHead
	if n := len(m.al); i >= n {
		i -= n
	}
	return &m.al[i]
}

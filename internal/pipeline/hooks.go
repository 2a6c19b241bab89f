package pipeline

import (
	"specmpk/internal/isa"
	"specmpk/internal/mpk"
	"specmpk/internal/trace"
)

// This file is the observation seam the simulated-time profiler
// (internal/profile) and the event stream (internal/trace: the ring and the
// pkey audit ledger) plug into. Both hooks are pull-free and allocation-free
// on the hot path: a nil sink disables the layer entirely, and every call
// site passes only values the stage already holds. Neither hook may
// influence timing — the golden-stats harness pins that.

// CPIBucket indexes the CPIStack buckets so a per-cycle attribution can name
// the bucket it lands in without string matching. The order mirrors CPIStack's
// fields.
type CPIBucket int

// The CPI-stack buckets, in CPIStack field order.
const (
	BucketBase CPIBucket = iota
	BucketFrontend
	BucketSerialize
	BucketPkruFull
	BucketMemory
	BucketSquashRecovery
	// NumCPIBuckets sizes per-PC bucket vectors.
	NumCPIBuckets
)

// cpiBuckets names each bucket (CPIStack's JSON tag, and the stats registry's
// pipeline.cpi.* suffix) and describes it, in bucket order.
var cpiBuckets = [NumCPIBuckets]struct{ name, desc string }{
	{"base", "cycles retiring work or stalled on execution latency"},
	{"frontend", "empty-window cycles from fetch/decode starvation"},
	{"serialize", "cycles lost to WRPKRU/RDPKRU serialization"},
	{"rob_pkru_full", "cycles lost to ROB_pkru capacity"},
	{"memory", "cycles the oldest instruction waited on memory"},
	{"squash_recovery", "post-squash refill bubbles"},
}

// String returns the bucket's JSON name (matching CPIStack's tags).
func (b CPIBucket) String() string {
	if b < 0 || b >= NumCPIBuckets {
		return "unknown"
	}
	return cpiBuckets[b].name
}

// field returns bucket b's counter in c: the one place a bucket maps to its
// CPIStack field.
func (c *CPIStack) field(b CPIBucket) *uint64 {
	switch b {
	case BucketBase:
		return &c.Base
	case BucketFrontend:
		return &c.Frontend
	case BucketSerialize:
		return &c.Serialize
	case BucketPkruFull:
		return &c.PkruFull
	case BucketMemory:
		return &c.Memory
	case BucketSquashRecovery:
		return &c.SquashRecovery
	}
	panic("pipeline: bad CPI bucket")
}

// AddN adds n cycles to bucket b — the idle fast-forward's batch equivalent
// of n simulated cycles attributed to b (see skipIdle).
func (c *CPIStack) AddN(b CPIBucket, n uint64) { *c.field(b) += n }

// Bucket returns the count in bucket b.
func (c CPIStack) Bucket(b CPIBucket) uint64 { return *c.field(b) }

// ProfileSink receives the per-PC profiler feed: CycleAttributed calls that
// together cover every simulated cycle (the same attribution accountCycle
// folds into Stats.CPI, plus the program location responsible) and one
// Retired call per retired instruction. A simulated cycle reports n = 1; the
// idle fast-forward reports its whole batch of identical cycles in one call,
// with the bucket and PC of the cycle just simulated (a skipped cycle is a
// fixed point, so they cannot differ). Because every cycle is reported
// exactly once, a sink that sums its per-PC buckets reconstructs the global
// CPI stack exactly — the invariant internal/profile's tests pin.
//
// The PC a cycle attributes to is the location that *caused* the bucket:
//
//   - base:            the first instruction retired that cycle, or the
//     window's oldest instruction when the cycle was an execution-latency
//     stall
//   - serialize:       the WRPKRU site whose serialization blocks rename
//     (the in-flight WRPKRU if one exists, else the WRPKRU/RDPKRU waiting
//     at the rename head)
//   - rob_pkru_full:   the WRPKRU that could not rename
//   - memory:          the stalled load/store at the window head
//   - frontend/squash_recovery: the current fetch PC
type ProfileSink interface {
	CycleAttributed(b CPIBucket, pc uint64, n uint64)
	Retired(pc uint64)
}

// emit stamps an event with the current cycle and hands it to the attached
// sink. Each occurrence is emitted once, at the point its verdict takes
// effect.
func (m *Machine) emit(e trace.Event) {
	if m.Events != nil {
		e.Cycle = m.cycle
		m.Events.Emit(e)
	}
}

// openUpgrades emits one upgrade_open event per protection key that the
// executing WRPKRU transiently upgrades relative to the committed ARF — the
// speculative windows the SpecMPK attack surface is about. Only renamed
// designs have such windows: a serialized WRPKRU updates the ARF directly at
// execute, so its grants are architectural the moment they exist.
func (m *Machine) openUpgrades(e *alEntry) {
	if m.Events == nil || !m.pol.renamesPKRU {
		return
	}
	nv := mpk.PKRU(e.storeData)
	arf := m.PKRUState.ARF()
	var mask uint16
	for k := 0; k < mpk.NumKeys; k++ {
		readUp := nv.ReadAllowed(k) && !arf.ReadAllowed(k)
		writeUp := nv.WriteAllowed(k) && !arf.WriteAllowed(k)
		if readUp || writeUp {
			mask |= 1 << k
			m.emit(trace.Event{Kind: trace.KindUpgradeOpen, Seq: e.seq, PC: e.pc, Pkey: trace.KeyOf(k)})
		}
	}
	e.upgMask = mask
	e.upgCyc = m.cycle
}

// closeUpgrades closes every transient-upgrade window e opened, as a commit
// (the window became architectural) or a squash (it never did).
func (m *Machine) closeUpgrades(e *alEntry, committed bool) {
	if e.upgMask == 0 {
		return
	}
	kind := trace.KindUpgradeSquash
	if committed {
		kind = trace.KindUpgradeCommit
	}
	d := m.cycle - e.upgCyc
	for k := 0; k < mpk.NumKeys; k++ {
		if e.upgMask&(1<<k) != 0 {
			m.emit(trace.Event{Kind: kind, Seq: e.seq, PC: e.pc, Pkey: trace.KeyOf(k), N: d})
		}
	}
	e.upgMask = 0
}

// holdToHead stalls a load until it is non-squashable: it re-executes at the
// window head (reissueAtHead). why names the policy gate that held it, and
// key its protection key when already known.
func (m *Machine) holdToHead(e *alEntry, key trace.Key, why string) {
	e.stallTillHead = true
	e.stallCyc = m.cycle
	m.Stats.LoadsStalledTillHead++
	m.emit(trace.Event{Kind: trace.KindLoadStall, Seq: e.seq, PC: e.pc, Pkey: key, Note: why})
}

// closeHold emits kind as e's held window closes, at the head replay or at
// commit, with N the cycles since it opened; then, when e's translation was
// deferred, the tlb_fill just performed.
func (m *Machine) closeHold(e *alEntry, kind trace.Kind) {
	d := m.cycle - e.stallCyc
	m.emit(trace.Event{Kind: kind, Seq: e.seq, PC: e.pc, Pkey: trace.KeyOf(e.pkey), N: d})
	if e.tlbDeferred {
		m.emit(trace.Event{Kind: trace.KindTLBFill, Seq: e.seq, PC: e.pc, Pkey: trace.KeyOf(e.pkey), N: d})
	}
}

// serializeSitePC locates the WRPKRU site responsible for a serialize-bucket
// cycle: the in-flight WRPKRU when one exists (the serialized machine's
// drain, or the WRPKRUs an RDPKRU waits out), else the serializing
// instruction blocked at the rename head.
func (m *Machine) serializeSitePC() uint64 {
	for i := 0; i < m.alCnt; i++ {
		if e := m.alAt(i); e.in.Op == isa.OpWrpkru {
			return e.pc
		}
	}
	return m.renameBlockPC
}

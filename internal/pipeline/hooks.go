package pipeline

import (
	"specmpk/internal/isa"
	"specmpk/internal/mpk"
	"specmpk/internal/trace"
)

// This file is the observation seam the simulated-time profiler and the pkey
// security audit ledger (internal/profile) plug into. Both hooks are pull-free
// and allocation-free on the hot path: a nil sink disables the layer entirely,
// and every call site passes only values the stage already holds. Neither hook
// may influence timing — the golden-stats harness pins that.

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

// String returns the bucket's JSON name (matching CPIStack's tags).
func (b CPIBucket) String() string {
	switch b {
	case BucketBase:
		return "base"
	case BucketFrontend:
		return "frontend"
	case BucketSerialize:
		return "serialize"
	case BucketPkruFull:
		return "rob_pkru_full"
	case BucketMemory:
		return "memory"
	case BucketSquashRecovery:
		return "squash_recovery"
	}
	return "unknown"
}

// Add increments the bucket b of the stack.
func (c *CPIStack) Add(b CPIBucket) {
	switch b {
	case BucketBase:
		c.Base++
	case BucketFrontend:
		c.Frontend++
	case BucketSerialize:
		c.Serialize++
	case BucketPkruFull:
		c.PkruFull++
	case BucketMemory:
		c.Memory++
	case BucketSquashRecovery:
		c.SquashRecovery++
	}
}

// AddN adds n cycles to bucket b — the idle fast-forward's batch equivalent
// of n Add calls (see skipIdle).
func (c *CPIStack) AddN(b CPIBucket, n uint64) {
	switch b {
	case BucketBase:
		c.Base += n
	case BucketFrontend:
		c.Frontend += n
	case BucketSerialize:
		c.Serialize += n
	case BucketPkruFull:
		c.PkruFull += n
	case BucketMemory:
		c.Memory += n
	case BucketSquashRecovery:
		c.SquashRecovery += n
	}
}

// Bucket returns the count in bucket b.
func (c CPIStack) Bucket(b CPIBucket) uint64 {
	switch b {
	case BucketBase:
		return c.Base
	case BucketFrontend:
		return c.Frontend
	case BucketSerialize:
		return c.Serialize
	case BucketPkruFull:
		return c.PkruFull
	case BucketMemory:
		return c.Memory
	case BucketSquashRecovery:
		return c.SquashRecovery
	}
	return 0
}

// ProfileSink receives the per-PC profiler feed: one CycleAttributed call per
// simulated cycle (the same attribution accountCycle folds into Stats.CPI,
// plus the program location responsible) and one Retired call per retired
// instruction. Because every cycle is reported exactly once, a sink that sums
// its per-PC buckets reconstructs the global CPI stack exactly — the
// invariant internal/profile's tests pin.
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
	CycleAttributed(b CPIBucket, pc uint64)
	Retired(pc uint64)
}

// AuditKind names a pkey security audit event.
type AuditKind string

// The audit event kinds. Open/stall/defer/suppress events fire when a
// speculative window opens; the matching close/replay/commit events carry the
// window's simulated-time Duration in cycles.
const (
	// AuditUpgradeOpen: an executed WRPKRU transiently grants pkey a
	// permission the committed ARF_pkru denies (one event per upgraded key).
	AuditUpgradeOpen AuditKind = "upgrade_open"
	// AuditUpgradeCommit: the upgrading WRPKRU retired; the window is now
	// architectural. Duration = execute→retire cycles.
	AuditUpgradeCommit AuditKind = "upgrade_commit"
	// AuditUpgradeSquash: the upgrading WRPKRU was squashed; the transient
	// window closed without ever becoming architectural.
	AuditUpgradeSquash AuditKind = "upgrade_squash"
	// AuditLoadStall: a load deferred to the window head (PKRU Load Check
	// failure, deferred TLB fill, or forwarding suppression); Reason
	// distinguishes the cause.
	AuditLoadStall AuditKind = "load_stall"
	// AuditLoadReplay: a stalled load re-executed at the head;
	// Duration = stall→replay cycles.
	AuditLoadReplay AuditKind = "load_replay"
	// AuditNoForward: a store's store-to-load forwarding was suppressed
	// (failed PKRU Store Check or deferred translation).
	AuditNoForward AuditKind = "no_forward"
	// AuditNoForwardCommit: a no-forward store reached commit and passed
	// its precise re-check; Duration = execute→commit cycles.
	AuditNoForwardCommit AuditKind = "no_forward_commit"
	// AuditTLBDefer: a TLB-missing access whose fill was deferred to
	// retirement (§V-C5).
	AuditTLBDefer AuditKind = "tlb_defer"
	// AuditTLBFill: a deferred TLB fill finally performed at the head or at
	// commit; Duration = defer→fill cycles.
	AuditTLBFill AuditKind = "tlb_fill"
)

// PkeyUnknown marks audit events whose protection key is not yet known —
// the access's translation was itself deferred.
const PkeyUnknown = -1

// AuditEvent is one pkey security occurrence delivered to the AuditSink.
type AuditEvent struct {
	Kind     AuditKind
	Cycle    uint64
	Pkey     int // protection key, or PkeyUnknown
	PC       uint64
	Seq      uint64
	Duration uint64 // close/replay/commit events: cycles since the open
	Store    bool
	Reason   string // load_stall: load_check | tlb_defer | forward_blocked | partial_forward
}

// AuditSink receives pkey security audit events. The events fire at the
// points where a policy verdict takes effect (load/store check results,
// WRPKRU execute/retire/squash, deferred fills), so every row of the policy
// table is audited without instrumentation of its own.
type AuditSink interface {
	Audit(AuditEvent)
}

// audit forwards an audit event to the attached sink, stamping the cycle.
func (m *Machine) audit(e AuditEvent) {
	if m.Audit != nil {
		e.Cycle = m.cycle
		m.Audit.Audit(e)
	}
}

// auditUpgradeOpen fires one AuditUpgradeOpen event (and one upgrade_open
// trace event) per protection key that the executing WRPKRU transiently
// upgrades relative to the committed ARF — the speculative windows the
// SpecMPK attack surface is about. Only renamed designs have such windows: a
// serialized WRPKRU updates the ARF directly at execute, so its grants are
// architectural the moment they exist.
func (m *Machine) auditUpgradeOpen(e *alEntry) {
	if (m.Audit == nil && m.Events == nil) || !m.pol.renamesPKRU {
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
			m.audit(AuditEvent{Kind: AuditUpgradeOpen, Pkey: k, PC: e.pc, Seq: e.seq})
			m.emit(trace.Event{Kind: trace.KindUpgradeOpen, Seq: e.seq, PC: e.pc, N: uint64(k)})
		}
	}
	e.upgMask = mask
	e.upgCyc = m.cycle
}

// auditUpgradeClose closes every transient-upgrade window e opened, as a
// commit (the window became architectural) or a squash (it never did).
func (m *Machine) auditUpgradeClose(e *alEntry, committed bool) {
	if e.upgMask == 0 {
		return
	}
	kind, note := AuditUpgradeCommit, "commit"
	if !committed {
		kind, note = AuditUpgradeSquash, "squash"
	}
	d := m.cycle - e.upgCyc
	for k := 0; k < mpk.NumKeys; k++ {
		if e.upgMask&(1<<k) == 0 {
			continue
		}
		m.audit(AuditEvent{Kind: kind, Pkey: k, PC: e.pc, Seq: e.seq, Duration: d})
		m.emit(trace.Event{Kind: trace.KindUpgradeClose, Seq: e.seq, PC: e.pc, N: uint64(k), Note: note})
	}
	e.upgMask = 0
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

package profile

import (
	"fmt"
	"io"

	"specmpk/internal/mpk"
	"specmpk/internal/stats"
	"specmpk/internal/trace"
)

// KeyAudit tallies the pkey security events charged to one protection key.
// Counts accrue when a window opens (with whatever key is known at that
// point — a deferred translation opens under the unknown key); duration
// cycles accrue when the matching close/replay/commit/fill event fires, by
// which time the key is always resolved.
type KeyAudit struct {
	UpgradesOpened      uint64 `json:"upgrades_opened"`
	UpgradesCommitted   uint64 `json:"upgrades_committed"`
	UpgradesSquashed    uint64 `json:"upgrades_squashed"`
	UpgradeWindowCycles uint64 `json:"upgrade_window_cycles"`
	LoadsStalled        uint64 `json:"loads_stalled"`
	LoadStallCycles     uint64 `json:"load_stall_cycles"`
	StoresNoForward     uint64 `json:"stores_no_forward"`
	NoForwardCycles     uint64 `json:"no_forward_cycles"`
	TLBDefers           uint64 `json:"tlb_defers"`
	TLBDeferCycles      uint64 `json:"tlb_defer_cycles"`
}

func (k *KeyAudit) active() bool { return *k != KeyAudit{} }

func (k *KeyAudit) add(o KeyAudit) {
	k.UpgradesOpened += o.UpgradesOpened
	k.UpgradesCommitted += o.UpgradesCommitted
	k.UpgradesSquashed += o.UpgradesSquashed
	k.UpgradeWindowCycles += o.UpgradeWindowCycles
	k.LoadsStalled += o.LoadsStalled
	k.LoadStallCycles += o.LoadStallCycles
	k.StoresNoForward += o.StoresNoForward
	k.NoForwardCycles += o.NoForwardCycles
	k.TLBDefers += o.TLBDefers
	k.TLBDeferCycles += o.TLBDeferCycles
}

// Ledger is the pkey security audit ledger: a trace.Sink that aggregates
// the core's event stream per protection key. Index mpk.NumKeys holds
// events whose key was unknown when they fired (deferred translations).
type Ledger struct {
	Keys [mpk.NumKeys + 1]KeyAudit
}

// NewLedger builds an empty ledger. Attach with m.Events = l, or through a
// trace.Fanout beside a ring.
func NewLedger() *Ledger { return &Ledger{} }

// Emit implements trace.Sink. It tallies the pkey security kinds — upgrade
// windows, held loads, suppressed forwarding, deferred fills — and ignores
// the rest of the stream.
func (l *Ledger) Emit(e trace.Event) {
	k := &l.Keys[mpk.NumKeys]
	if key, ok := e.Pkey.Value(); ok && key < mpk.NumKeys {
		k = &l.Keys[key]
	}
	switch e.Kind {
	case trace.KindUpgradeOpen:
		k.UpgradesOpened++
	case trace.KindUpgradeCommit:
		k.UpgradesCommitted++
		k.UpgradeWindowCycles += e.N
	case trace.KindUpgradeSquash:
		k.UpgradesSquashed++
		k.UpgradeWindowCycles += e.N
	case trace.KindLoadStall:
		k.LoadsStalled++
	case trace.KindLoadReplay:
		k.LoadStallCycles += e.N
	case trace.KindNoForward:
		k.StoresNoForward++
	case trace.KindNoForwardCommit:
		k.NoForwardCycles += e.N
	case trace.KindTLBDefer:
		k.TLBDefers++
	case trace.KindTLBFill:
		k.TLBDeferCycles += e.N
	}
}

// Totals sums the ledger across keys.
func (l *Ledger) Totals() KeyAudit {
	var t KeyAudit
	for i := range l.Keys {
		t.add(l.Keys[i])
	}
	return t
}

// Register publishes the ledger's aggregate counters into the stats
// registry under audit.*, next to the pipeline's own counters.
func (l *Ledger) Register(reg *stats.Registry) {
	c := func(name, desc string, fn func(t KeyAudit) uint64) {
		reg.Counter("audit."+name, desc, func() uint64 { return fn(l.Totals()) })
	}
	c("upgrades_opened", "transient pkey-upgrade windows opened by executed WRPKRUs",
		func(t KeyAudit) uint64 { return t.UpgradesOpened })
	c("upgrades_committed", "transient-upgrade windows that became architectural at retire",
		func(t KeyAudit) uint64 { return t.UpgradesCommitted })
	c("upgrades_squashed", "transient-upgrade windows closed by a squash",
		func(t KeyAudit) uint64 { return t.UpgradesSquashed })
	c("upgrade_window_cycles", "total simulated cycles transient-upgrade windows were open",
		func(t KeyAudit) uint64 { return t.UpgradeWindowCycles })
	c("loads_stalled", "loads deferred to the window head by a policy gate",
		func(t KeyAudit) uint64 { return t.LoadsStalled })
	c("load_stall_cycles", "total cycles stalled loads waited before replaying",
		func(t KeyAudit) uint64 { return t.LoadStallCycles })
	c("stores_no_forward", "stores whose store-to-load forwarding was suppressed",
		func(t KeyAudit) uint64 { return t.StoresNoForward })
	c("no_forward_cycles", "total cycles no-forward stores waited for their precise re-check",
		func(t KeyAudit) uint64 { return t.NoForwardCycles })
	c("tlb_defers", "TLB fills deferred to retirement (SpecMPK §V-C5)",
		func(t KeyAudit) uint64 { return t.TLBDefers })
	c("tlb_defer_cycles", "total cycles deferred TLB fills waited",
		func(t KeyAudit) uint64 { return t.TLBDeferCycles })
}

// LedgerRow is one pkey's ledger line: a row of the -profile-out "audit"
// array and of LedgerTable.
type LedgerRow struct {
	Pkey string `json:"pkey"` // "0".."15", "unknown", or "total"
	KeyAudit
}

// Rows returns the per-key ledger rows (active keys only) plus the total.
func (l *Ledger) Rows() []LedgerRow {
	var rows []LedgerRow
	for i := range l.Keys {
		if !l.Keys[i].active() {
			continue
		}
		name := fmt.Sprintf("%d", i)
		if i == mpk.NumKeys {
			name = "unknown"
		}
		rows = append(rows, LedgerRow{Pkey: name, KeyAudit: l.Keys[i]})
	}
	rows = append(rows, LedgerRow{Pkey: "total", KeyAudit: l.Totals()})
	return rows
}

// LedgerTable writes ledger rows as the per-pkey audit table.
func LedgerTable(w io.Writer, rows []LedgerRow) {
	fmt.Fprintf(w, "%-8s %9s %9s %10s %10s %9s %10s %9s %10s %9s %10s\n",
		"pkey", "upg.open", "upg.commt", "upg.squash", "upg.cycles",
		"ld.stall", "ld.cycles", "st.nofwd", "fwd.cycles", "tlb.defer", "tlb.cycles")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %9d %9d %10d %10d %9d %10d %9d %10d %9d %10d\n",
			r.Pkey, r.UpgradesOpened, r.UpgradesCommitted, r.UpgradesSquashed,
			r.UpgradeWindowCycles, r.LoadsStalled, r.LoadStallCycles,
			r.StoresNoForward, r.NoForwardCycles, r.TLBDefers, r.TLBDeferCycles)
	}
}

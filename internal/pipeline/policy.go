package pipeline

import (
	"fmt"
	"strings"

	"specmpk/internal/mpk"
)

// policy is one WRPKRU microarchitecture, written as the handful of verdicts
// on which the paper's designs differ (§V-C). The stage functions read these
// fields directly; everything else — the ROB_pkru rename/execute/retire/
// squash lifecycle, the audit ledger, the head replay — is shared. A new
// design is one more row in policies, plus a new verdict value only when no
// existing one fits.
type policy struct {
	name string
	// renamesPKRU: WRPKRU renames PKRU and executes speculatively. Without
	// it WRPKRU serializes: it enters only an empty window and blocks all
	// younger rename until it retires, so PKRU is never renamed and every
	// access sees the committed ARF_pkru.
	renamesPKRU bool
	// pkruInPRF: the PKRU rename slots live in the main physical register
	// file (one per active-list entry, so rename never stalls on them), as
	// NonSecure does (§VII), instead of the Config.ROBPkruSize-entry
	// ROB_pkru whose Disabling Counters the checks need.
	pkruInPRF bool
	load      loadVerdict
	store     storeVerdict
	// deferTLB: a TLB-missing access does not walk at execute. The pKey of
	// an uncached page is unknown, so the load stalls (store: loses
	// forwarding) and translates once non-speculative, leaving no
	// speculative TLB footprint (§V-C5). Config.NoTLBDeferral ablates it.
	deferTLB bool
}

// loadVerdict is what a load does once its translation, and so its pKey, is
// known.
type loadVerdict uint8

const (
	// loadFault raises a pkey fault if the PKRU the load observes forbids
	// the read.
	loadFault loadVerdict = iota
	// loadCheckStall defers the load to the window head when the PKRU Load
	// Check fails (§V-C2), leaving no cache or TLB footprint.
	loadCheckStall
	// loadUpgradeStall faults like loadFault, and defers to the window head
	// a load that only an in-flight WRPKRU upgrade allows (Okapi-style,
	// Schmitz et al.): transiently upgraded data never enters the cache.
	loadUpgradeStall
)

// storeVerdict is what a store does once its pKey is known and the page's
// RWX protection allowed the write.
type storeVerdict uint8

const (
	// storeFault raises a pkey fault if the PKRU the store observes forbids
	// the write.
	storeFault storeVerdict = iota
	// storeCheckNoForward suppresses store-to-load forwarding when the PKRU
	// Store Check fails and re-verifies the permission precisely at commit
	// (§V-C2).
	storeCheckNoForward
)

// policies is the WRPKRU design table, indexed by Mode. An omitted field is
// the current-hardware verdict: serialize, ROB_pkru slots, fault on a
// forbidden access, walk a TLB miss at execute.
var policies = [...]policy{
	ModeSerialized: {name: "serialized"},
	ModeNonSecure:  {name: "nonsecure", renamesPKRU: true, pkruInPRF: true},
	ModeSpecMPK: {name: "specmpk", renamesPKRU: true,
		load: loadCheckStall, store: storeCheckNoForward, deferTLB: true},
	ModeDelayUpgrade: {name: "delayupgrade", renamesPKRU: true, load: loadUpgradeStall},
	ModeNoForward:    {name: "noforward", renamesPKRU: true, store: storeCheckNoForward},
}

func (m Mode) valid() bool { return m >= 0 && int(m) < len(policies) }

// ParseMode resolves a policy name ("serialized", "specmpk",
// "delayupgrade", ...) to its Mode. The error on unknown input lists every
// valid name. ParseMode and Mode.String round-trip for every policy.
func ParseMode(name string) (Mode, error) {
	for i := range policies {
		if policies[i].name == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown mode %q (valid: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// RegisteredModes returns every policy's Mode in table order (the three
// paper microarchitectures first).
func RegisteredModes() []Mode {
	out := make([]Mode, len(policies))
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

// PolicyNames returns every policy name in table order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i := range policies {
		out[i] = policies[i].name
	}
	return out
}

func (m Mode) String() string {
	if m.valid() {
		return policies[m].name
	}
	return fmt.Sprintf("mode%d", int(m))
}

// specPKRU returns the PKRU value the memory instruction e observes: its
// renamed PKRU source's value (guaranteed executed by the issue dependence),
// or the committed ARF. A serializing policy never renames PKRU, so there
// every access checks the ARF.
func (m *Machine) specPKRU(e *alEntry) mpk.PKRU {
	return m.PKRUState.Value(int(e.pkruSrc), e.pkruDepSeq)
}

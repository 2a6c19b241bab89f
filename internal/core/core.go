// Package core implements the SpecMPK microarchitecture state proper
// (paper §V): the dedicated PKRU reorder buffer (ROB_pkru), the
// architectural PKRU register (ARF_pkru), the PKRU rename map (RMT_pkru),
// and the per-pKey AccessDisable/WriteDisable counter files, together with
// the PKRU Load Check and PKRU Store Check predicates.
//
// It is the one model of PKRU renaming. RMT_pkru is read off the ROB_pkru
// ring: it is valid exactly while an entry is in flight, and then names the
// youngest one, at the tail. The out-of-order pipeline drives the state
// machine at four points and asks it the three questions a PKRU consumer
// (memory instruction or WRPKRU) has — its source, whether that source has
// executed, and the value it observes:
//
//	rename:  Full / InFlight / Source / Rename
//	execute: ExecutedThrough / Execute / LoadCheckFails / StoreCheckFails / Value
//	retire:  Retire
//	squash:  SquashYoungest
//
// Keeping it separate from the pipeline makes the paper's hardware additions
// independently testable and lets internal/hwcost account for exactly these
// structures.
package core

import (
	"fmt"

	"specmpk/internal/mpk"
)

// TagARF is the rename tag meaning "the committed PKRU in ARF_pkru"
// (no in-flight WRPKRU precedes the consumer).
const TagARF = -1

// Entry is one ROB_pkru slot: a speculative PKRU value plus the two pKey
// bitmaps used to decrement the Disabling Counters on retire or squash
// (paper §V-C1 stores these bitmaps in ROB_pkru).
type Entry struct {
	Val      mpk.PKRU
	Executed bool
	ADMask   uint16
	WDMask   uint16
	// Seq is the owning WRPKRU's sequence number. A slot is reused once its
	// WRPKRU retires, so a consumer names its source by tag and Seq together.
	Seq uint64
}

// State is the complete SpecMPK hardware addition.
type State struct {
	rob   []Entry
	head  int
	tail  int
	count int

	arf mpk.PKRU

	// executed is the highest sequence number of any executed WRPKRU.
	executed uint64

	adCtr [mpk.NumKeys]uint16
	wdCtr [mpk.NumKeys]uint16
}

// New builds the state with robSize ROB_pkru entries (Table III default: 8).
func New(robSize int) *State {
	if robSize <= 0 {
		panic("core: ROB_pkru size must be positive")
	}
	return &State{rob: make([]Entry, robSize)}
}

// InFlight returns the number of occupied ROB_pkru entries.
func (s *State) InFlight() int { return s.count }

// Full reports whether renaming another WRPKRU must stall the front end.
func (s *State) Full() bool { return s.count == len(s.rob) }

// ARF returns the committed PKRU value.
func (s *State) ARF() mpk.PKRU { return s.arf }

// SetARF installs a committed PKRU directly (used by the serialized
// microarchitecture, which bypasses renaming entirely).
func (s *State) SetARF(v mpk.PKRU) { s.arf = v }

// Source returns what RMT_pkru maps a PKRU consumer's implicit source to at
// rename: the youngest in-flight WRPKRU's tag and sequence number, or
// (TagARF, 0) when none is in flight.
func (s *State) Source() (tag int, seq uint64) {
	if s.count == 0 {
		return TagARF, 0
	}
	tag = s.tail - 1
	if tag < 0 {
		tag += len(s.rob)
	}
	return tag, s.rob[tag].Seq
}

// Rename allocates a ROB_pkru entry for the WRPKRU with sequence number seq,
// which becomes the Source of every younger consumer, and returns its tag.
// The caller must have checked Full.
func (s *State) Rename(seq uint64) int {
	if s.Full() {
		panic("core: Rename on full ROB_pkru")
	}
	tag := s.tail
	s.rob[tag] = Entry{Seq: seq}
	s.tail = (s.tail + 1) % len(s.rob)
	s.count++
	return tag
}

// Execute delivers a WRPKRU's value to its entry and bumps the Disabling
// Counters for every pKey the new value disables (paper §V-C1: counters
// are incremented in the execution stage, in program order because WRPKRU
// instructions are chained through the renamed PKRU source).
func (s *State) Execute(tag int, val mpk.PKRU) {
	e := &s.rob[tag]
	if e.Executed {
		panic(fmt.Sprintf("core: double execute of ROB_pkru entry %d", tag))
	}
	e.Val = val
	e.Executed = true
	e.ADMask = val.ADMask()
	e.WDMask = val.WDMask()
	s.executed = max(s.executed, e.Seq)
	s.bump(e.ADMask, e.WDMask, +1)
}

// ExecutedThrough returns the highest sequence number of any executed
// WRPKRU. WRPKRUs execute in program order, so a consumer's source has
// executed exactly when its Source sequence number is at most this.
func (s *State) ExecutedThrough() uint64 { return s.executed }

// Value returns the PKRU a consumer whose Source was (tag, seq) observes,
// once that source has executed: the entry's value while the slot still
// holds that WRPKRU, and the committed ARF otherwise. Retirement is in
// order and no WRPKRU lies between a consumer and its source, so from the
// source's retirement until the consumer's the ARF holds the source's
// value. The designs that fault a
// forbidden access read speculative values through this; SpecMPK's memory
// instructions never read ROB_pkru data (paper Table II note).
func (s *State) Value(tag int, seq uint64) mpk.PKRU {
	if tag != TagARF && s.rob[tag].Seq == seq {
		return s.rob[tag].Val
	}
	return s.arf
}

// Retire pops the oldest entry into ARF_pkru and decrements the counters
// using the entry's stored bitmaps.
func (s *State) Retire() {
	if s.count == 0 {
		panic("core: Retire on empty ROB_pkru")
	}
	e := &s.rob[s.head]
	if !e.Executed {
		panic("core: Retire of unexecuted WRPKRU")
	}
	s.arf = e.Val
	s.bump(e.ADMask, e.WDMask, -1)
	s.head = (s.head + 1) % len(s.rob)
	s.count--
}

// SquashYoungest removes the newest entry (tail side) on a pipeline squash,
// undoing its counter increments if it had executed, so RMT_pkru names the
// youngest survivor. Returns the squashed tag.
func (s *State) SquashYoungest() int {
	if s.count == 0 {
		panic("core: SquashYoungest on empty ROB_pkru")
	}
	s.tail--
	if s.tail < 0 {
		s.tail += len(s.rob)
	}
	e := &s.rob[s.tail]
	if e.Executed {
		s.bump(e.ADMask, e.WDMask, -1)
	}
	s.count--
	return s.tail
}

func (s *State) bump(ad, wd uint16, delta int) {
	for k := 0; k < mpk.NumKeys; k++ {
		if ad&(1<<k) != 0 {
			s.adCtr[k] = uint16(int(s.adCtr[k]) + delta)
		}
		if wd&(1<<k) != 0 {
			s.wdCtr[k] = uint16(int(s.wdCtr[k]) + delta)
		}
	}
}

// ADCount returns the AccessDisableCounter for key k; a test oracle, since
// the pipeline reads the counters only through the checks.
func (s *State) ADCount(k int) uint16 { return s.adCtr[k] }

// WDCount returns the WriteDisableCounter for key k; a test oracle, like
// ADCount.
func (s *State) WDCount(k int) uint16 { return s.wdCtr[k] }

// LoadCheckFails is the PKRU Load Check (paper §V-C2): a load touching
// pKey k must stall until retirement if any in-flight WRPKRU disables
// access to k or the committed PKRU has k access-disabled.
func (s *State) LoadCheckFails(k int) bool {
	return s.adCtr[k] > 0 || s.arf.AccessDisabled(k)
}

// StoreCheckFails is the PKRU Store Check: store-to-load forwarding is
// disabled for a store touching pKey k if either Disabling Counter is
// nonzero for k or the committed PKRU has k access- or write-disabled.
func (s *State) StoreCheckFails(k int) bool {
	return s.adCtr[k] > 0 || s.wdCtr[k] > 0 ||
		s.arf.AccessDisabled(k) || s.arf.WriteDisabled(k)
}

// Quiesced reports whether the structure is idle with zeroed counters; a
// test oracle, the invariant property tests check after every drain.
func (s *State) Quiesced() bool {
	if s.count != 0 {
		return false
	}
	for k := 0; k < mpk.NumKeys; k++ {
		if s.adCtr[k] != 0 || s.wdCtr[k] != 0 {
			return false
		}
	}
	return true
}

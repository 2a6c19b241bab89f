package pipeline

import "math/bits"

// Event-driven scheduling.
//
// The issue and complete stages never poll the window. Every entry that can
// move is on a bitmap indexed by its physical active-list slot, and the
// stages walk only set bits:
//
//   - iqBits: waiting and issuable (st == stWaiting && !stallTillHead).
//   - readyBits: the entry's register operands have been written and every
//     older WRPKRU has executed. Rename sets it for an entry whose operands
//     are already there; otherwise a wakeup sets it when the last one
//     arrives. The issue walk visits iqBits ∧ readyBits.
//   - regWaiters: one row per physical register p, holding the slots renamed
//     while p was not yet written. Completing p's producer re-checks exactly
//     that row (wakeReg). Rename clears the row when it reallocates p.
//   - pkruWait: entries whose pkruDepSeq is above wrpkruExecHighwater. Only
//     these are re-checked when a WRPKRU executes (wakePKRU).
//   - issuedBits: st == stIssued, the completion walk's work list.
//   - sqUnresolvedBits: stores whose address is unknown (mirrors the
//     sqUnresolved count), so a load's conservative disambiguation check is
//     a range query instead of a window walk.
//
// A wakeup always re-derives readiness from the entry now in the slot, so a
// stale registration — a squashed consumer whose slot was reused — can only
// repeat a verdict, never invent one. Register readiness and the WRPKRU
// highwater change only in completeStage, which runs before issue, and a
// squash ends the issue walk, so the ready bits the walk reads are exactly
// what polling every entry would have computed. The one input that can
// change mid-walk is an older store resolving its address earlier in the
// same walk, so the store check stays live.

// slotBits is a bitmap over physical active-list slots.
type slotBits []uint64

func (b slotBits) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b slotBits) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b slotBits) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// anyIn reports whether any slot in [lo, hi) is set.
func (b slotBits) anyIn(lo, hi int) bool {
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		if b[w]&spanMask(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// spanMask returns the bits of bitmap word w that fall inside slots [lo, hi).
// Callers only pass words that overlap the range.
func spanMask(w, lo, hi int) uint64 {
	mask := ^uint64(0)
	base := w << 6
	if base < lo {
		mask <<= uint(lo - base)
	}
	if base+64 > hi {
		mask &= 1<<uint(hi-base) - 1
	}
	return mask
}

// windowSpans returns the window, [alHead, alHead+alCnt) on the ring, as at
// most two physical slot ranges [lo, hi), oldest first. Within a range
// ascending slot number is ascending age.
func (m *Machine) windowSpans() [2][2]int {
	end := m.alHead + m.alCnt
	if n := len(m.al); end > n {
		return [2][2]int{{m.alHead, n}, {0, end - n}}
	}
	return [2][2]int{{m.alHead, end}, {0, 0}}
}

// offset returns the window offset (0 = oldest) of physical slot phys.
func (m *Machine) offset(phys int) int {
	idx := phys - m.alHead
	if idx < 0 {
		idx += len(m.al)
	}
	return idx
}

// waiters returns physical register p's row of regWaiters: the slots
// renamed while p was not yet written.
func (m *Machine) waiters(p int) slotBits {
	words := len(m.iqBits)
	return slotBits(m.regWaiters[p*words : (p+1)*words])
}

// waitReg reports whether physical register p has been written; if not, it
// registers slot as one of p's consumers.
func (m *Machine) waitReg(p, slot int) bool {
	if m.prfReady[p] {
		return true
	}
	m.waiters(p).set(slot)
	return false
}

// operandsReady is the readiness the wakeups maintain in readyBits: both
// register operands written and every older WRPKRU executed (SpecMPK design
// principle 2; real hardware enforces it through the renamed PKRU source
// operand).
func (m *Machine) operandsReady(e *alEntry) bool {
	return (e.physRs1 == noReg || m.prfReady[e.physRs1]) &&
		(e.physRs2 == noReg || m.prfReady[e.physRs2]) &&
		e.pkruDepSeq <= m.wrpkruExecHighwater
}

// wakeReg re-checks the consumers registered on physical register p, which
// completeStage has just marked ready.
func (m *Machine) wakeReg(p int) {
	for w, word := range m.waiters(p) {
		for word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.operandsReady(&m.al[slot]) {
				m.readyBits.set(slot)
			}
		}
	}
}

// wakePKRU re-checks the entries waiting on a WRPKRU after
// wrpkruExecHighwater rose.
func (m *Machine) wakePKRU() {
	for w, word := range m.pkruWait {
		for word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e := &m.al[slot]
			if e.pkruDepSeq > m.wrpkruExecHighwater {
				continue
			}
			m.pkruWait.clear(slot)
			if m.operandsReady(e) {
				m.readyBits.set(slot)
			}
		}
	}
}

// loadBlocked is the conservative disambiguation check for the load at
// window offset idx: it waits while any older store's address is unknown.
// With memory-dependence speculation the load goes ahead anyway (unless its
// PC has violated before), and a later-resolving store squashes it on
// overlap.
func (m *Machine) loadBlocked(e *alEntry, idx int) bool {
	if m.sqUnresolved == 0 || m.Cfg.MemDepSpeculation && !m.violators[e.pc] {
		return false
	}
	lo, hi := m.alHead, m.alHead+idx // the older entries' slots, on the ring
	if n := len(m.al); hi > n {
		if m.sqUnresolvedBits.anyIn(0, hi-n) {
			return true
		}
		hi = n
	}
	return m.sqUnresolvedBits.anyIn(lo, hi)
}

// markIssued transitions a waiting entry to issued with completion cycle
// done, maintaining the issue-queue occupancy count, the issue and issued
// bitmaps, and the completion horizon. Every st → stIssued transition goes
// through here so those invariants cannot drift from the ring state.
func (m *Machine) markIssued(e *alEntry, done uint64) {
	slot := int(e.alIdx)
	if e.st == stWaiting {
		m.iqCnt--
		m.iqBits.clear(slot)
	}
	e.st = stIssued
	e.done = done
	m.issuedBits.set(slot)
	if done < m.nextDone {
		m.nextDone = done
	}
}

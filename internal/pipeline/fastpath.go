package pipeline

// Idle fast-forward.
//
// A window stalled on a long-latency DRAM miss spends hundreds of cycles in
// which no stage can make progress: nothing completes (the earliest pending
// completion is in the future), nothing new can issue (wakeups only happen at
// completion), rename is blocked and fetch is stalled or full. The seed
// simulator walked every structure on every one of those cycles; stepFast
// instead detects a no-progress cycle, computes the next cycle at which
// anything can happen, and batch-accounts the identical stall cycles in
// between — cycle counters, rename-stall attribution and the CPI-stack bucket
// all advance exactly as the per-cycle walk would have, which the golden-stats
// harness pins bit-for-bit.
//
// The skip is provably safe because every state change inside Step is flagged
// (m.progressed): when a Step mutated nothing, the machine is a fixed point of
// Step except for the per-cycle counters, and it stays one until the earliest
// of (a) a pending completion (m.nextDone — wakes issue, retire and, through
// them, everything else), (b) fetch's stall expiring (m.fetchStallTo), (c) the
// head of the fetch queue leaving the decode pipe (readyAt), or (d) the
// squash-recovery shadow ending (which only changes the *attribution* of
// empty-window cycles, so it bounds the skip too). The rename stage's WRPKRU/
// RDPKRU gate is a verdict, not an action, so eliding its re-evaluation on
// skipped cycles is unobservable.
//
// One real Step always lands on the event cycle itself, so every actual state
// transition runs through the ordinary stage functions.

// stepFast advances at least one cycle, fast-forwarding across provably idle
// stretches. limit is the absolute cycle bound of the enclosing run; the
// machine never skips past it. A machine driven by external per-cycle
// observation (an attached ProfileSink receives one CycleAttributed call per
// cycle) disables the skip and degrades to plain Step.
func (m *Machine) stepFast(limit uint64) {
	m.Step()
	if m.progressed || m.Prof != nil || m.halted || m.fault != nil {
		return
	}
	if n := m.idleCycles(limit); n > 0 {
		m.skipIdle(n)
	}
}

// idleCycles returns how many cycles after the current one are guaranteed to
// repeat the cycle just simulated verbatim (0 = none). Call only after a Step
// that made no progress.
func (m *Machine) idleCycles(limit uint64) uint64 {
	next := m.nextDone // earliest pending completion (noDone when none)
	if !m.fetchStopped && m.fetchStallTo > m.cycle && m.fetchStallTo < next {
		// Fetch resumes at fetchStallTo. (If fetch is live and unstalled the
		// Step above fetched and we are not here; if the queue is full, fetch
		// stays blocked until rename drains it, which needs another event.)
		next = m.fetchStallTo
	}
	if m.fqLen > 0 {
		if r := m.fqFront().readyAt; r > m.cycle && r < next {
			// Rename may start once the head clears the decode pipe.
			next = r
		}
	}
	if m.alCnt == 0 && m.cycle <= m.recoverUntil && m.recoverUntil+1 < next {
		// Empty-window cycles flip from squash_recovery to frontend after
		// the redirect shadow; stop the batch at the boundary so the skipped
		// cycles share one attribution.
		next = m.recoverUntil + 1
	}
	if next == noDone || next <= m.cycle+1 {
		return 0
	}
	// Skip to just before the event (the next Step lands on it), capped at
	// the run budget.
	to := next - 1
	if to > limit {
		to = limit
	}
	if to <= m.cycle {
		return 0
	}
	return to - m.cycle
}

// skipIdle batch-accounts n cycles identical to the one just simulated. The
// increments mirror exactly what n repetitions of Step would have done: the
// cycle counters, the rename-stall counters renameStage charges when it wants
// to rename but cannot, and the CPI-stack bucket accountCycle chose. No event,
// retire record or load-latency observation fires on an idle cycle, so none
// is replayed here.
func (m *Machine) skipIdle(n uint64) {
	m.cycle += n
	m.Stats.Cycles += n
	if m.renameWanted {
		m.Stats.RenameStallCycles += n
		switch m.renameBlock {
		case stallSerialize:
			m.Stats.SerializeStallCycles += n
		case stallPkruFull:
			m.Stats.PkruFullStallCycles += n
		}
	}
	m.Stats.CPI.AddN(m.lastBucket, n)
}

// rasCheckpoint returns the pool index describing the current RAS state,
// appending a new pool entry only when this fetch group's instruction
// actually pushed or popped (mutated); otherwise the previous checkpoint is
// shared. See Machine.rasCkpts for why the pool cannot overwrite a live
// entry.
func (m *Machine) rasCheckpoint(mutated bool) int {
	if mutated {
		m.rasCur++
		if m.rasCur == len(m.rasCkpts) {
			m.rasCur = 0
		}
		m.rasCkpts[m.rasCur] = m.ras.Checkpoint()
	}
	return m.rasCur
}

// rasRestore rewinds the RAS to pool entry idx and makes it the current
// checkpoint again. Every surviving in-flight instruction references a pool
// entry at or before idx on the live path, so the write cursor rewinds with
// the squash — the invariant that bounds the pool's live span.
func (m *Machine) rasRestore(idx int) {
	m.ras.Restore(m.rasCkpts[idx])
	m.rasCur = idx
}

package pipeline

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/stats"
	"specmpk/internal/trace"
	"specmpk/internal/workload"
)

// This file pins the hot-path data structures the cycle-loop refactor
// introduced: the in-flight ring (the window plus the fetch queue after it)
// and its incremental occupancy counters, the event-driven scheduler's
// bitmaps and wakeup registrations, the preallocated free list, the
// RAS-checkpoint pool, the batched load-latency histogram, and the PKRU
// value a renamed access observes (against a window walk). The golden
// harness pins end-to-end timing; these tests pin the internal invariants
// per cycle, under squash/refill storms, so a future edit that lets a
// counter drift fails here with a named invariant instead of as an opaque
// golden mismatch.

// checkHotInvariants cross-checks every incrementally maintained structure
// against a fresh walk of the window. Called after each Step, so it sees
// every intermediate machine state a storm produces.
func checkHotInvariants(t *testing.T, m *Machine) {
	t.Helper()
	n := len(m.al)

	// Ring geometry: the window and the fetch queue stay within the sizes
	// they model, and head/tail/count agree.
	if m.alCnt > m.Cfg.ALSize || m.fqLen > m.fqCap {
		t.Fatalf("cycle %d: ring over capacity: alCnt %d (ALSize %d), fqLen %d (fqCap %d)",
			m.cycle, m.alCnt, m.Cfg.ALSize, m.fqLen, m.fqCap)
	}
	wantTail := m.alHead + m.alCnt
	if wantTail >= n {
		wantTail -= n
	}
	if m.alTail != wantTail {
		t.Fatalf("cycle %d: alTail %d, want %d (head %d cnt %d)",
			m.cycle, m.alTail, wantTail, m.alHead, m.alCnt)
	}

	// Recount the window; verify counters, the scheduler bitmaps, and alIdx.
	var waiting, unresolved, allocs int
	inWindow := make([]bool, n)
	for i := 0; i < m.alCnt; i++ {
		e := m.alAt(i)
		phys := m.alHead + i
		if phys >= n {
			phys -= n
		}
		inWindow[phys] = true
		if int(e.alIdx) != phys {
			t.Fatalf("cycle %d: entry at slot %d has alIdx %d", m.cycle, phys, e.alIdx)
		}
		switch e.st {
		case stWaiting:
			waiting++
		case stIssued:
			if e.done < m.nextDone {
				t.Fatalf("cycle %d: issued entry completes at %d before nextDone %d",
					m.cycle, e.done, m.nextDone)
			}
		}
		isUnresolved := e.isStore && !e.addrReady && e.fault == nil
		if isUnresolved {
			unresolved++
		}
		if e.newPhys != noReg {
			allocs++
		}
		for _, b := range [...]struct {
			name string
			bits slotBits
			want bool
		}{
			{"iqBits", m.iqBits, e.st == stWaiting && !e.stallTillHead},
			{"issuedBits", m.issuedBits, e.st == stIssued},
			{"sqUnresolvedBits", m.sqUnresolvedBits, isUnresolved},
			{"pkruWait", m.pkruWait, e.pkruDepSeq > m.PKRUState.ExecutedThrough()},
		} {
			if got := b.bits.has(phys); got != b.want {
				t.Fatalf("cycle %d: %s[slot %d] = %v, want %v (seq %d st %d stallTillHead %v)",
					m.cycle, b.name, phys, got, b.want, e.seq, e.st, e.stallTillHead)
			}
		}
		// The PKRU an access observes: once its renamed source has executed,
		// the value core answers for it is what a walk back to the youngest
		// older WRPKRU finds.
		if m.pol.renamesPKRU && (e.isLoad || e.isStore) && e.pkruDepSeq <= m.PKRUState.ExecutedThrough() {
			if got, want := m.specPKRU(e), windowPKRU(m, i); got != want {
				t.Fatalf("cycle %d: seq %d sees PKRU %#x, window walk says %#x", m.cycle, e.seq, uint32(got), uint32(want))
			}
		}
		if e.st != stWaiting {
			continue
		}
		// Wakeups: a waiting entry's ready bit says exactly whether its
		// operands are ready (the issue walk trusts it), and an entry still
		// missing one is registered where its arrival will wake it. A
		// waiter row may also hold slots of squashed consumers; the wakeup
		// re-checks whatever entry is in the slot, so only a missing
		// registration is an error.
		regsReady := true
		for _, p := range [...]int{e.physRs1, e.physRs2} {
			if p == noReg || m.prfReady[p] {
				continue
			}
			regsReady = false
			if !m.waiters(p).has(phys) {
				t.Fatalf("cycle %d: missed wakeup: seq %d (slot %d) waits on p%d but is not registered",
					m.cycle, e.seq, phys, p)
			}
		}
		operandsReady := regsReady && e.pkruDepSeq <= m.PKRUState.ExecutedThrough()
		if !e.stallTillHead && m.readyBits.has(phys) != operandsReady {
			t.Fatalf("cycle %d: readyBits[slot %d] = %v but operands ready = %v (seq %d)",
				m.cycle, phys, m.readyBits.has(phys), operandsReady, e.seq)
		}
	}
	if waiting != m.iqCnt {
		t.Fatalf("cycle %d: iqCnt %d, window has %d waiting", m.cycle, m.iqCnt, waiting)
	}
	if unresolved != m.sqUnresolved {
		t.Fatalf("cycle %d: sqUnresolved %d, window has %d", m.cycle, m.sqUnresolved, unresolved)
	}
	for slot := 0; slot < n; slot++ {
		if inWindow[slot] {
			continue
		}
		for _, b := range [...]struct {
			name string
			bits slotBits
		}{
			{"iqBits", m.iqBits}, {"issuedBits", m.issuedBits},
			{"sqUnresolvedBits", m.sqUnresolvedBits}, {"pkruWait", m.pkruWait},
		} {
			if b.bits.has(slot) {
				t.Fatalf("cycle %d: stale %s bit for slot %d outside the window", m.cycle, b.name, slot)
			}
		}
	}

	// Free-list conservation and pool reuse: every physical register is
	// committed (one per architectural register), free, or allocated by an
	// in-flight entry — and the preallocated backing array never grows.
	if got := isa.NumRegs + len(m.freeList) + allocs; got != m.Cfg.PRFSize {
		t.Fatalf("cycle %d: register conservation broken: 32 committed + %d free + %d in flight = %d, want %d",
			m.cycle, len(m.freeList), allocs, got, m.Cfg.PRFSize)
	}
	if cap(m.freeList) != m.Cfg.PRFSize {
		t.Fatalf("cycle %d: free list reallocated (cap %d, want %d)",
			m.cycle, cap(m.freeList), m.Cfg.PRFSize)
	}

	// RAS-checkpoint pool: the cursor's entry always describes the live RAS,
	// and every in-flight reference is a valid pool index.
	if m.rasCkpts[m.rasCur] != m.ras.Checkpoint() {
		t.Fatalf("cycle %d: rasCkpts[rasCur] does not match the live RAS", m.cycle)
	}
	for i := 0; i < m.alCnt; i++ {
		if ck := m.alAt(i).rasCkpt; ck < 0 || ck >= len(m.rasCkpts) {
			t.Fatalf("cycle %d: AL entry rasCkpt %d out of pool range", m.cycle, ck)
		}
	}

	// Fetch queue: the fqLen slots after the window hold fetched, not yet
	// renamed instructions. squashAfter empties it, so after a cycle that
	// squashed it holds only what fetch, the last stage, brought in after
	// the redirect.
	squashed := m.recoverUntil == m.cycle+uint64(m.Cfg.FrontendDepth)+1
	for i := 0; i < m.fqLen; i++ {
		e := m.alAt(m.alCnt + i)
		switch {
		case e.seq != 0:
			t.Fatalf("cycle %d: fetch-queue slot %d already renamed (seq %d)", m.cycle, i, e.seq)
		case e.readyAt != e.fetchCyc+uint64(m.Cfg.FrontendDepth):
			t.Fatalf("cycle %d: fetch-queue slot %d ready at %d, fetched at %d (depth %d)",
				m.cycle, i, e.readyAt, e.fetchCyc, m.Cfg.FrontendDepth)
		case squashed && e.fetchCyc != m.cycle:
			t.Fatalf("cycle %d: fetch-queue slot %d (fetched at %d) survived a squash", m.cycle, i, e.fetchCyc)
		}
		if ck := e.rasCkpt; ck < 0 || ck >= len(m.rasCkpts) {
			t.Fatalf("cycle %d: fetch-queue entry rasCkpt %d out of pool range", m.cycle, ck)
		}
	}
}

// windowPKRU is the reference for specPKRU: the PKRU the memory instruction
// at window offset idx observes, found by walking the window back to the
// youngest older WRPKRU, or the committed ARF when none is in flight.
func windowPKRU(m *Machine, idx int) mpk.PKRU {
	if m.PKRUState.InFlight() == 0 {
		return m.PKRUState.ARF()
	}
	for j := idx - 1; j >= 0; j-- {
		if s := m.alAt(j); s.in.Op == isa.OpWrpkru {
			return mpk.PKRU(s.storeData)
		}
	}
	return m.PKRUState.ARF()
}

// StormProg and SmallCfg export the storm program and its small machine to
// the external test package.
var (
	StormProg = stormProg
	SmallCfg  = smallCfg
)

// stormProg builds the squash/refill storm: LCG-driven data-dependent
// branches (constant mispredict pressure), call/return depth (RAS churn),
// WRPKRU toggles crossing speculative windows, and loads/stores against two
// pkey regions.
func stormProg(t *testing.T) *asm.Program {
	r := rand.New(rand.NewSource(11))
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(r.Uint32())
	}
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, heapBase)
		f.Movi(3, shadowBase)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruProtect))
		f.Wrpkru(27)
		for i, v := range vals {
			f.Movi(9, v)
			f.St(9, 4, int64(i)*8)
		}
		f.Movi(8, 300) // iterations
		f.Movi(10, 0)  // checksum
		f.Movi(11, 1)  // lcg state
		f.Label("loop")
		f.Movi(12, 6364136223846793005)
		f.Mul(11, 11, 12)
		f.Addi(11, 11, 1442695040888963407)
		f.Shri(13, 11, 33)
		f.Andi(14, 13, 0x1F8)
		f.Add(14, 14, 4)
		f.Ld(15, 14, 0)
		f.Andi(16, 15, 1)
		f.Beq(16, isa.RegZero, "even")
		f.Addi(10, 10, 3)
		f.Wrpkru(26)
		f.St(10, 3, 0)
		f.Wrpkru(27)
		f.Call("leaf") // RAS traffic inside the mispredicted region
		f.Jump("join")
		f.Label("even")
		f.Addi(10, 10, 7)
		f.Call("leaf")
		f.Label("join")
		f.Andi(16, 13, 2)
		f.Beq(16, isa.RegZero, "skip2")
		f.Xor(10, 10, 15)
		f.Label("skip2")
		f.Addi(8, 8, -1)
		f.Bne(8, isa.RegZero, "loop")
		f.Halt()
		g := b.Func("leaf")
		g.Addi(10, 10, 1)
		g.Ret()
	})
}

// stormDigest runs the storm functionally for the equivalence check.
func stormDigest(t *testing.T, p *asm.Program) uint64 {
	t.Helper()
	ref, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(5_000_000, 1); err != nil {
		t.Fatal(err)
	}
	d, _ := ref.Digest()
	return d
}

// smallCfg shrinks every structure so the rings wrap many times and
// structural stalls (full AL, full IQ, empty free list) actually fire.
func smallCfg(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.ALSize = 48
	cfg.IQSize = 24
	cfg.LQSize = 16
	cfg.SQSize = 12
	cfg.PRFSize = 64
	cfg.ROBPkruSize = 4
	return cfg
}

// TestHotPathInvariantsUnderStorm steps the storm one cycle at a time under a
// deliberately tiny machine and cross-checks every incremental structure
// against a full window walk after every single cycle, for every registered
// policy. The run must still match the functional simulator.
func TestHotPathInvariantsUnderStorm(t *testing.T) {
	p := stormProg(t)
	want := stormDigest(t, p)
	for _, mode := range allModes() {
		m, err := New(smallCfg(mode), p)
		if err != nil {
			t.Fatal(err)
		}
		wraps := 0
		lastHead := m.alHead
		for limit := 0; limit < 2_000_000 && !m.halted && m.fault == nil; limit++ {
			m.Step()
			checkHotInvariants(t, m)
			if m.alHead < lastHead {
				wraps++
			}
			lastHead = m.alHead
		}
		if !m.halted {
			t.Fatalf("%v: storm did not halt", mode)
		}
		got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
		if got != want {
			t.Fatalf("%v: diverged under storm", mode)
		}
		if wraps < 2 {
			t.Fatalf("%v: active-list ring wrapped only %d times; the test lost its wraparound coverage", mode, wraps)
		}
		if m.Stats.Mispredicts < 100 {
			t.Fatalf("%v: storm too calm (%d mispredicts)", mode, m.Stats.Mispredicts)
		}
	}
}

// TestHotPathInvariantsMemDepAblations repeats the per-cycle invariant sweep
// under the two ablations that exercise the rarest paths: optimistic memory
// disambiguation (memory-order squashes mid-issue) and suspect-store address
// withholding (sqUnresolved re-increments plus store replay at the head).
func TestHotPathInvariantsMemDepAblations(t *testing.T) {
	p := stormProg(t)
	want := stormDigest(t, p)
	for _, stall := range []bool{false, true} {
		cfg := smallCfg(ModeSpecMPK)
		cfg.MemDepSpeculation = true
		cfg.StallSuspectStores = stall
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		for limit := 0; limit < 2_000_000 && !m.halted && m.fault == nil; limit++ {
			m.Step()
			checkHotInvariants(t, m)
		}
		if !m.halted {
			t.Fatalf("stall=%v: storm did not halt", stall)
		}
		got, _ := funcsim.DigestState(m.ArchRegs(), m.AS, p.Regions)
		if got != want {
			t.Fatalf("stall=%v: diverged", stall)
		}
	}
}

// TestHotPathInvariantsOnCatalogue checks every invariant after each cycle of
// 548.exchange2_r on the Table III machine. Unlike the storm, it reaches a
// mispredicting branch that completes as the youngest entry in the window
// while the fetch queue holds its wrong path (first near cycle 27,000): that
// squash removes no window entry, and the queue must still be emptied.
func TestHotPathInvariantsOnCatalogue(t *testing.T) {
	wl, _ := workload.ByName("548.exchange2_r")
	p, err := wl.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	queueOnlySquash := false
	for m.cycle < 35_000 && !m.halted && m.fault == nil {
		queued, squashed := m.fqLen, m.Stats.Squashed
		m.Step()
		checkHotInvariants(t, m)
		if queued > 0 && m.Stats.Squashed == squashed && m.recoverUntil == m.cycle+uint64(m.Cfg.FrontendDepth)+1 {
			queueOnlySquash = true
		}
	}
	if !queueOnlySquash {
		t.Fatal("no squash with an empty younger window and a non-empty fetch queue; the test lost its coverage")
	}
}

// TestRingAtAdmissionMaxima builds the largest machine Config.Validate
// admits, as a client may ask for it, and runs 505.mcf_r on it with every
// invariant checked after each of 2,000 cycles. Its ring is 8,256 slots: a
// 4,096-entry window plus a 64-wide, 65-deep fetch queue. The checked
// stretch follows a cold-start warm-up and covers the ring's edges: the
// fetch queue wrapping past the ring's end, and window and queue both full.
// New must stay within 16 MiB at this shape.
func TestRingAtAdmissionMaxima(t *testing.T) {
	wl, _ := workload.ByName("505.mcf_r")
	p, err := wl.Build(workload.VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Width, cfg.IssueWidth, cfg.FrontendDepth = maxWidth, maxWidth, maxFrontendDepth
	cfg.ALSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = maxWindow, maxWindow, maxWindow, maxWindow
	cfg.PRFSize, cfg.ROBPkruSize = maxWindow, maxWindow
	cfg.BTBEntries = maxBTBEntries
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("New at the admission maxima allocated %.1f MiB, want at most 16", float64(got)/(1<<20))
	}
	if want := maxWindow + maxWidth*(maxFrontendDepth+1); len(m.al) != want {
		t.Fatalf("ring has %d slots, want %d", len(m.al), want)
	}
	for m.cycle < 10_000 && !m.halted && m.fault == nil {
		m.Step()
	}
	var wrapped, full bool
	for i := 0; i < 2000 && !m.halted && m.fault == nil; i++ {
		m.Step()
		checkHotInvariants(t, m)
		wrapped = wrapped || m.alTail+m.fqLen > len(m.al)
		full = full || m.alCnt == cfg.ALSize && m.fqLen == m.fqCap
	}
	if m.halted || m.fault != nil {
		t.Fatalf("machine stopped at cycle %d (fault %v)", m.cycle, m.fault)
	}
	if !wrapped || !full {
		t.Fatalf("checked cycles missed a ring edge: fetch queue wrapped %v, ring full %v", wrapped, full)
	}
}

// TestIdleFastForwardEquivalence pins stepFast against per-cycle Step: two
// machines on the same storm must produce identical statistics, cycle counts
// and architectural state whether or not the idle fast-forward is allowed to
// batch stall cycles. (TestProfiledRunMatchesStepLoop pins the same
// equivalence for an attached ProfileSink.)
func TestIdleFastForwardEquivalence(t *testing.T) {
	p := stormProg(t)
	for _, mode := range allModes() {
		fast, err := New(smallCfg(mode), p)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(smallCfg(mode), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := fast.Run(2_000_000); err != nil {
			t.Fatalf("%v: fast: %v", mode, err)
		}
		for limit := 0; limit < 2_000_000 && !slow.halted && slow.fault == nil; limit++ {
			slow.Step()
		}
		slow.Stats.Stop = fast.Stats.Stop // Step() alone never records a stop reason
		if fast.Stats != slow.Stats {
			t.Fatalf("%v: stepFast stats diverge from per-cycle Step:\nfast %+v\nslow %+v",
				mode, fast.Stats, slow.Stats)
		}
		if fast.cycle != slow.cycle || fast.ArchRegs() != slow.ArchRegs() {
			t.Fatalf("%v: stepFast machine state diverges from per-cycle Step", mode)
		}
	}
}

// TestLoadLatBucketMatchesObserve pins the batched histogram's bit-twiddled
// bucket index to stats.Histogram.Observe's reference scan, across every
// boundary (bounds are inclusive) and deep into the overflow bucket.
func TestLoadLatBucketMatchesObserve(t *testing.T) {
	for lat := 1; lat <= 1100; lat++ {
		want := len(loadLatBounds) // overflow
		for i, ub := range loadLatBounds {
			if float64(lat) <= ub {
				want = i
				break
			}
		}
		if got := loadLatBucket(lat); got != want {
			t.Fatalf("loadLatBucket(%d) = %d, want %d", lat, got, want)
		}
	}
}

// TestLoadLatValueMatchesHistogram runs real loads under every policy and
// cross-checks the machine's batched counters, as its registry's snapshot
// reports them in pipeline.load_latency, against an independent
// stats.Histogram fed from every load event — same observations, so the two
// must agree exactly.
func TestLoadLatValueMatchesHistogram(t *testing.T) {
	p := stormProg(t)
	for _, mode := range RegisteredModes() {
		m, err := New(smallCfg(mode), p)
		if err != nil {
			t.Fatal(err)
		}
		loads := trace.Loads{}
		m.Events = loads
		if err := m.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		ref := stats.NewHistogram(loadLatBounds[:])
		for _, lats := range loads {
			for _, lat := range lats {
				ref.Observe(float64(lat))
			}
		}
		rv := ref.Value()
		bv, ok := m.StatsRegistry().Snapshot().Get("pipeline.load_latency")
		if !ok || bv.Hist == nil {
			t.Fatalf("%v: snapshot has no pipeline.load_latency histogram", mode)
		}
		if rv.Count == 0 {
			t.Fatalf("%v: storm ran no loads", mode)
		}
		if rv.Count != bv.Hist.Count || rv.Sum != bv.Hist.Sum {
			t.Fatalf("%v: count/sum diverge: ref %d/%.0f batched %d/%.0f",
				mode, rv.Count, rv.Sum, bv.Hist.Count, bv.Hist.Sum)
		}
		if !slices.Equal(rv.Bounds, bv.Hist.Bounds) || len(rv.Counts) != len(bv.Hist.Counts) {
			t.Fatalf("%v: bucket layouts diverge: ref %v batched %v", mode, rv.Bounds, bv.Hist.Bounds)
		}
		for i := range rv.Counts {
			if rv.Counts[i] != bv.Hist.Counts[i] {
				t.Fatalf("%v: bucket %d diverges: ref %d batched %d", mode, i, rv.Counts[i], bv.Hist.Counts[i])
			}
		}
	}
}

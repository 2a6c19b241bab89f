package pipeline

import (
	"math/rand"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/stats"
)

// This file pins the hot-path data structures the cycle-loop refactor
// introduced: the active-list ring and its incremental occupancy counters,
// the event-driven scheduler's bitmaps and wakeup registrations, the
// preallocated free list, the fetch-queue ring, the RAS-checkpoint pool, and
// the batched load-latency histogram. The golden
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

	// Ring geometry: head/tail/count agree.
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
			{"pkruWait", m.pkruWait, e.pkruDepSeq > m.wrpkruExecHighwater},
		} {
			if got := b.bits.has(phys); got != b.want {
				t.Fatalf("cycle %d: %s[slot %d] = %v, want %v (seq %d st %d stallTillHead %v)",
					m.cycle, b.name, phys, got, b.want, e.seq, e.st, e.stallTillHead)
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
		operandsReady := regsReady && e.pkruDepSeq <= m.wrpkruExecHighwater
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

	// Fetch-queue ring stays within its preallocated storage.
	if m.fqLen > len(m.fq) || m.fqHead >= len(m.fq) {
		t.Fatalf("cycle %d: fq ring out of range (head %d len %d cap %d)",
			m.cycle, m.fqHead, m.fqLen, len(m.fq))
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
	for i := 0; i < m.fqLen; i++ {
		j := m.fqHead + i
		if j >= len(m.fq) {
			j -= len(m.fq)
		}
		if ck := m.fq[j].rasCkpt; ck < 0 || ck >= len(m.rasCkpts) {
			t.Fatalf("cycle %d: fq entry rasCkpt %d out of pool range", m.cycle, ck)
		}
	}
}

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

// TestIdleFastForwardEquivalence pins stepFast against per-cycle Step: two
// machines on the same storm must produce identical statistics, cycle counts
// and architectural state whether or not the idle fast-forward is allowed to
// batch stall cycles. (Attaching a ProfileSink forces per-cycle stepping, but
// here the comparison drives Step directly for full independence.)
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

// TestLoadLatValueMatchesHistogram runs real loads and cross-checks the
// machine's batched counters against an independent stats.Histogram fed from
// the OnLoadLatency hook — same observations, so the snapshots must agree
// exactly.
func TestLoadLatValueMatchesHistogram(t *testing.T) {
	p := stormProg(t)
	m, err := New(smallCfg(ModeSpecMPK), p)
	if err != nil {
		t.Fatal(err)
	}
	ref := stats.NewHistogram(loadLatBounds[:])
	m.OnLoadLatency = func(_ uint64, lat int) { ref.Observe(float64(lat)) }
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	reg.AttachHistogram("ref", "", ref)
	reg.HistogramFunc("batched", "", m.loadLatValue)
	snap := reg.Snapshot()
	rv, _ := snap.Get("ref")
	bv, _ := snap.Get("batched")
	if rv.Hist == nil || bv.Hist == nil {
		t.Fatal("missing histogram snapshots")
	}
	if rv.Hist.Count == 0 {
		t.Fatal("storm ran no loads")
	}
	if rv.Hist.Count != bv.Hist.Count || rv.Hist.Sum != bv.Hist.Sum {
		t.Fatalf("count/sum diverge: ref %d/%.0f batched %d/%.0f",
			rv.Hist.Count, rv.Hist.Sum, bv.Hist.Count, bv.Hist.Sum)
	}
	for i := range rv.Hist.Counts {
		if rv.Hist.Counts[i] != bv.Hist.Counts[i] {
			t.Fatalf("bucket %d diverges: ref %d batched %d", i, rv.Hist.Counts[i], bv.Hist.Counts[i])
		}
	}
}

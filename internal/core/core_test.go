package core

import (
	"math/rand"
	"testing"

	"specmpk/internal/mpk"
)

func deny(keys ...int) mpk.PKRU {
	r := mpk.AllowAll
	for _, k := range keys {
		r = r.WithKey(k, mpk.Perm{AD: true, WD: true})
	}
	return r
}

func TestRenameExecuteRetireFlow(t *testing.T) {
	s := New(4)
	if tag, seq := s.Source(); tag != TagARF || seq != 0 {
		t.Fatalf("idle source = (%d, %d), want ARF", tag, seq)
	}
	tag := s.Rename(1)
	if src, seq := s.Source(); src != tag || seq != 1 {
		t.Fatalf("source = (%d, %d), want the new entry (%d, 1)", src, seq, tag)
	}
	if s.ExecutedThrough() >= 1 {
		t.Fatal("fresh entry must be unexecuted")
	}
	v := deny(3)
	s.Execute(tag, v)
	if s.ExecutedThrough() != 1 || s.Value(tag, 1) != v {
		t.Fatal("execute must publish the value")
	}
	if s.ADCount(3) != 1 || s.WDCount(3) != 1 {
		t.Fatal("counters must reflect the in-flight disable")
	}
	s.Retire()
	if s.ARF() != v {
		t.Fatal("retire must commit to ARF")
	}
	if !s.Quiesced() {
		t.Fatal("state must quiesce after drain")
	}
}

func TestLoadCheckScenarios(t *testing.T) {
	// The three Figure 7 scenarios for pKey 1.
	// Scenario 1: latest update disables access.
	s := New(8)
	tag := s.Rename(1)
	s.Execute(tag, deny(1))
	if !s.LoadCheckFails(1) {
		t.Fatal("scenario 1: load must stall")
	}

	// Scenario 2: committed disables, latest enables.
	s = New(8)
	s.SetARF(deny(1))
	tag = s.Rename(1)
	s.Execute(tag, mpk.AllowAll)
	if !s.LoadCheckFails(1) {
		t.Fatal("scenario 2: committed AD must stall the load")
	}

	// Scenario 3: committed and latest enable, an intermediate disables.
	s = New(8)
	t1 := s.Rename(1)
	s.Execute(t1, deny(1))
	t2 := s.Rename(2)
	s.Execute(t2, mpk.AllowAll)
	if !s.LoadCheckFails(1) {
		t.Fatal("scenario 3: intermediate disable must stall the load")
	}

	// No disable anywhere: check passes.
	s = New(8)
	tag = s.Rename(1)
	s.Execute(tag, mpk.AllowAll)
	if s.LoadCheckFails(1) {
		t.Fatal("clean window must not stall")
	}
	// Other keys unaffected by a key-1 disable.
	s = New(8)
	tag = s.Rename(1)
	s.Execute(tag, deny(1))
	if s.LoadCheckFails(0) || s.LoadCheckFails(2) {
		t.Fatal("unrelated keys must pass")
	}
}

func TestStoreCheckIncludesWD(t *testing.T) {
	s := New(4)
	tag := s.Rename(1)
	wdOnly := mpk.AllowAll.WithKey(2, mpk.Perm{WD: true})
	s.Execute(tag, wdOnly)
	if s.LoadCheckFails(2) {
		t.Fatal("WD alone must not stall loads")
	}
	if !s.StoreCheckFails(2) {
		t.Fatal("WD must disable store forwarding")
	}
	// Committed WD also fails the store check.
	s2 := New(4)
	s2.SetARF(wdOnly)
	if !s2.StoreCheckFails(2) {
		t.Fatal("committed WD must disable store forwarding")
	}
	if s2.LoadCheckFails(2) {
		t.Fatal("committed WD must not stall loads")
	}
}

func TestRetireClearsRMTOnlyForHead(t *testing.T) {
	s := New(4)
	t1 := s.Rename(1)
	t2 := s.Rename(2)
	s.Execute(t1, mpk.AllowAll)
	s.Execute(t2, deny(5))
	s.Retire() // retires t1
	if tag, seq := s.Source(); tag != t2 || seq != 2 {
		t.Fatal("RMT must still point at the younger entry")
	}
	s.Retire() // retires t2, which RMT points at
	if tag, _ := s.Source(); tag != TagARF {
		t.Fatal("RMT must invalidate when its entry commits")
	}
	if s.ARF() != deny(5) {
		t.Fatal("ARF must hold the last committed value")
	}
}

func TestSquashUndoesCounters(t *testing.T) {
	s := New(4)
	t1 := s.Rename(1)
	s.Execute(t1, deny(1))
	t2 := s.Rename(2)
	s.Execute(t2, deny(2))
	t3 := s.Rename(3) // not yet executed

	// Squash t3 and t2 (youngest first), keep t1.
	if got := s.SquashYoungest(); got != t3 {
		t.Fatalf("squashed %d, want %d", got, t3)
	}
	if got := s.SquashYoungest(); got != t2 {
		t.Fatalf("squashed %d, want %d", got, t2)
	}
	if s.ADCount(2) != 0 {
		t.Fatal("squashed executed entry must decrement counters")
	}
	if s.ADCount(1) != 1 {
		t.Fatal("surviving entry's counters must remain")
	}
	if tag, seq := s.Source(); tag != t1 || seq != 1 {
		t.Fatal("RMT must point at the survivor")
	}
	// The tail slot must be reusable.
	t4 := s.Rename(4)
	s.Execute(t4, mpk.AllowAll)
	s.Retire()
	s.Retire()
	if !s.Quiesced() {
		t.Fatal("state must quiesce")
	}
}

func TestSquashAllRestoresARFOnly(t *testing.T) {
	s := New(4)
	s.SetARF(deny(7))
	t1 := s.Rename(1)
	s.Execute(t1, mpk.AllowAll)
	s.SquashYoungest()
	if !s.Quiesced() {
		t.Fatal("full squash must quiesce")
	}
	if s.ARF() != deny(7) {
		t.Fatal("ARF untouched by squash")
	}
	if !s.LoadCheckFails(7) {
		t.Fatal("committed disable must still gate loads")
	}
}

func TestFullAndCapacity(t *testing.T) {
	s := New(2)
	s.Rename(1)
	if s.Full() {
		t.Fatal("one of two entries used")
	}
	s.Rename(2)
	if !s.Full() || s.InFlight() != 2 {
		t.Fatal("must be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rename on full must panic")
		}
	}()
	s.Rename(3)
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("zero size", func() { New(0) })
	mustPanic("retire empty", func() { New(2).Retire() })
	mustPanic("squash empty", func() { New(2).SquashYoungest() })
	mustPanic("retire unexecuted", func() {
		s := New(2)
		s.Rename(1)
		s.Retire()
	})
	mustPanic("double execute", func() {
		s := New(2)
		tg := s.Rename(1)
		s.Execute(tg, mpk.AllowAll)
		s.Execute(tg, mpk.AllowAll)
	})
}

func TestValueTagARF(t *testing.T) {
	s := New(2)
	s.SetARF(deny(4))
	if s.Value(TagARF, 0) != deny(4) {
		t.Fatal("Value(TagARF, 0) must read the committed PKRU")
	}
	if tag, seq := s.Source(); tag != TagARF || seq > s.ExecutedThrough() {
		t.Fatal("with nothing in flight the source is TagARF, always ready")
	}
}

// TestValueAfterSlotReuse: a consumer of t1 keeps observing t1's value after
// t1 retires and a younger WRPKRU takes its slot, since the ARF then holds
// t1's value.
func TestValueAfterSlotReuse(t *testing.T) {
	s := New(2)
	t1 := s.Rename(1)
	s.Execute(t1, deny(1))
	s.Retire()
	if s.Value(t1, 1) != deny(1) {
		t.Fatal("a retired source must read its committed value")
	}
	t2 := s.Rename(2)
	if t3 := s.Rename(3); t3 != t1 {
		t.Fatalf("third rename took slot %d, want the recycled %d", t3, t1)
	}
	s.Execute(t2, mpk.AllowAll)
	s.Execute(t1, deny(7))
	if s.ExecutedThrough() != 3 {
		t.Fatalf("ExecutedThrough = %d, want 3", s.ExecutedThrough())
	}
	for _, c := range []struct {
		tag  int
		seq  uint64
		want mpk.PKRU
	}{{t1, 1, deny(1)}, {t2, 2, mpk.AllowAll}, {t1, 3, deny(7)}} {
		if got := s.Value(c.tag, c.seq); got != c.want {
			t.Errorf("Value(%d, %d) = %#x, want %#x", c.tag, c.seq, uint32(got), uint32(c.want))
		}
	}
}

// Property test: a random interleaving of rename/execute/retire/squash
// operations never drives a counter negative (they are uint16 — negative
// shows up as huge), always quiesces when fully drained, and answers every
// consumer's questions as an in-flight model does: Source names the youngest
// in-flight WRPKRU, ExecutedThrough the youngest executed one, and Value an
// executed entry's value, or the ARF for a source that has retired, even
// once its slot is reused.
func TestCounterConservationRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type flight struct {
		tag      int
		seq      uint64
		executed bool
		val      mpk.PKRU
	}
	for trial := 0; trial < 200; trial++ {
		s := New(8)
		var inflight []flight
		retired := flight{tag: TagARF} // the youngest retired source
		seq, executed := uint64(0), uint64(0)
		execute := func(f *flight) {
			f.val = mpk.PKRU(r.Uint32())
			s.Execute(f.tag, f.val)
			f.executed = true
			executed = max(executed, f.seq)
		}
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0: // rename
				if !s.Full() {
					seq++
					inflight = append(inflight, flight{tag: s.Rename(seq), seq: seq})
				}
			case 1: // execute oldest unexecuted (program order)
				for i := range inflight {
					if !inflight[i].executed {
						execute(&inflight[i])
						break
					}
				}
			case 2: // retire head if executed
				if len(inflight) > 0 && inflight[0].executed {
					s.Retire()
					retired = inflight[0]
					inflight = inflight[1:]
				}
			case 3: // squash a random-length suffix
				n := r.Intn(len(inflight) + 1)
				for i := 0; i < n; i++ {
					s.SquashYoungest()
					inflight = inflight[:len(inflight)-1]
				}
			}
			for k := 0; k < mpk.NumKeys; k++ {
				if s.ADCount(k) > 8 || s.WDCount(k) > 8 {
					t.Fatalf("counter overflow/underflow: key %d ad=%d wd=%d",
						k, s.ADCount(k), s.WDCount(k))
				}
			}
			wantTag, wantSeq := TagARF, uint64(0)
			if n := len(inflight); n > 0 {
				wantTag, wantSeq = inflight[n-1].tag, inflight[n-1].seq
			}
			if tag, sq := s.Source(); tag != wantTag || sq != wantSeq {
				t.Fatalf("trial %d op %d: Source = (%d, %d), want (%d, %d)", trial, op, tag, sq, wantTag, wantSeq)
			}
			if s.ExecutedThrough() != executed {
				t.Fatalf("trial %d op %d: ExecutedThrough = %d, want %d", trial, op, s.ExecutedThrough(), executed)
			}
			if got := s.Value(retired.tag, retired.seq); got != s.ARF() {
				t.Fatalf("trial %d op %d: retired source (%d, %d) sees %#x, want the ARF %#x",
					trial, op, retired.tag, retired.seq, uint32(got), uint32(s.ARF()))
			}
			for _, f := range inflight {
				if got := s.Value(f.tag, f.seq); f.executed && got != f.val {
					t.Fatalf("trial %d op %d: source (%d, %d) sees %#x, want %#x",
						trial, op, f.tag, f.seq, uint32(got), uint32(f.val))
				}
			}
		}
		// Drain.
		for i := range inflight {
			if !inflight[i].executed {
				execute(&inflight[i])
			}
		}
		for range inflight {
			s.Retire()
		}
		if !s.Quiesced() {
			t.Fatal("drain left the state busy or a counter nonzero")
		}
	}
}

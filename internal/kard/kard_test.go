package kard

import (
	"reflect"
	"strings"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/pipeline"
)

func TestConsistentLocksNoRace(t *testing.T) {
	det, err := RunScenario(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Races) != 0 {
		t.Fatalf("consistent locking flagged races: %v", det.Races)
	}
	if det.Faults == 0 {
		t.Fatal("the protocol runs on faults; none observed")
	}
	if len(det.Unlocked) != 0 {
		t.Fatalf("unexpected unlocked accesses: %v", det.Unlocked)
	}
	// Both threads completed their 20 increments each; the interleaved
	// final value is at least the per-thread count (lost updates are
	// possible — that is what locks are supposed to prevent — but the
	// counter must have moved).
	v, err := det.M.AS.ReadVirt64(objARegion)
	if err != nil {
		t.Fatal(err)
	}
	if v < 20 || v > 40 {
		t.Fatalf("counter = %d", v)
	}
}

func TestInconsistentLocksDetected(t *testing.T) {
	det, err := RunScenario(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Races) == 0 {
		t.Fatal("inconsistent locking must be detected")
	}
	r := det.Races[0]
	if r.PKey != objAKey {
		t.Fatalf("race on wrong object: %+v", r)
	}
	if r.HeldLock == r.OwnLock {
		t.Fatalf("race locks must differ: %+v", r)
	}
	if !strings.Contains(r.String(), "race: object pkey 1") {
		t.Fatalf("race string: %s", r)
	}
	// Detection must not break the program: both threads halt normally.
	for _, th := range det.M.Threads {
		if !th.Halted || th.Fault != nil {
			t.Fatalf("thread %d did not complete cleanly", th.ID)
		}
	}
}

func TestUnlockedAccessFlagged(t *testing.T) {
	// A thread touching a shared object without holding any lock.
	b := progBuilder(t)
	f := b.Func("main")
	f.Movi(5, objARegion)
	f.Ld(11, 5, 0) // no acquire first
	f.Halt()
	prog, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	det := Attach(m, map[uint64]int{lock1Addr: 1}, []int{objAKey})
	if err := m.Run(1000, 1); err != nil {
		t.Fatal(err)
	}
	if len(det.Unlocked) != 1 || det.Unlocked[0].PKey != objAKey {
		t.Fatalf("unlocked accesses: %v", det.Unlocked)
	}
}

func TestNonObjectFaultStops(t *testing.T) {
	// Faults unrelated to shared objects must still terminate the thread.
	b := progBuilder(t)
	f := b.Func("main")
	f.Movi(5, 0x70000000) // unmapped
	f.Ld(11, 5, 0)
	f.Halt()
	prog, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	Attach(m, map[uint64]int{lock1Addr: 1}, []int{objAKey})
	if err := m.Run(1000, 1); err == nil {
		t.Fatal("page fault must surface")
	}
}

// progBuilder starts an ad-hoc program with the scenario's memory layout.
func progBuilder(t *testing.T) *asm.Builder {
	t.Helper()
	b := asm.NewBuilder(0x10000)
	b.Region("locks", lockRegion, mem.PageSize, mem.ProtRW, 0)
	b.Region("objA", objARegion, mem.PageSize, mem.ProtRW, objAKey)
	return b
}

func TestPipelineScenarioAcrossMicroarchitectures(t *testing.T) {
	for _, mode := range []pipeline.Mode{
		pipeline.ModeSerialized, pipeline.ModeNonSecure, pipeline.ModeSpecMPK,
	} {
		clean, err := RunPipelineScenario(mode, true)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !clean.Finished || len(clean.Races) != 0 {
			t.Fatalf("%v: clean run: finished=%v races=%v", mode, clean.Finished, clean.Races)
		}
		if clean.Faults != 2 {
			t.Fatalf("%v: want one fault per critical section, got %d", mode, clean.Faults)
		}
		if clean.Counter != 2 {
			t.Fatalf("%v: counter = %d", mode, clean.Counter)
		}

		racy, err := RunPipelineScenario(mode, false)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !racy.Finished || len(racy.Races) != 1 {
			t.Fatalf("%v: racy run: finished=%v races=%v", mode, racy.Finished, racy.Races)
		}
		r := racy.Races[0]
		if r.OwnLock != 1 || r.HeldLock != 2 || r.PKey != objAKey {
			t.Fatalf("%v: race details: %+v", mode, r)
		}
	}
}

// TestPipelineMatchesFuncsimDetector: a program that touches the shared
// object again after releasing its lock (an unlocked access, then a second
// section under the same lock) gets the same races and unlocked accesses
// from Kard on every cycle-level policy as from funcsim's detector. The
// program follows the cycle-level protocol: it stores the lock id to
// lockVar on acquire and 0 on release, and locks the objects down with a
// WRPKRU after each; funcsim's detector reads the same stores as lock 1's
// acquire and release.
func TestPipelineMatchesFuncsimDetector(t *testing.T) {
	b := progBuilder(t)
	lockdown := int64(mpk.AllowAll.WithKey(objAKey, mpk.Perm{AD: true}))
	f := b.Func("main")
	f.Movi(4, lockRegion)
	f.Movi(5, objARegion)
	f.Movi(26, lockdown)
	f.Movi(9, 1)
	touch := func() {
		f.Ld(10, 5, 0)
		f.Addi(10, 10, 1)
		f.St(10, 5, 0)
	}
	for _, locked := range []bool{true, false, true, false} {
		if locked {
			f.St(9, 4, 16) // acquire lock 1
		} else {
			f.St(isa.RegZero, 4, 16) // release
		}
		f.Wrpkru(26)
		touch()
	}
	f.Halt()
	prog, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	m, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	det := Attach(m, map[uint64]int{lockVar: 1}, []int{objAKey})
	if err := m.Run(10_000, 1); err != nil {
		t.Fatal(err)
	}
	if len(det.Unlocked) != 2 || len(det.Races) != 0 {
		t.Fatalf("funcsim: races %v, unlocked %v; want no race and two unlocked accesses", det.Races, det.Unlocked)
	}
	for _, mode := range pipeline.RegisteredModes() {
		res, err := runPipeline(mode, prog)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Finished || !reflect.DeepEqual(res.Races, det.Races) || !reflect.DeepEqual(res.Unlocked, det.Unlocked) {
			t.Errorf("%v: finished %v, races %v, unlocked %v; funcsim: races %v, unlocked %v",
				mode, res.Finished, res.Races, res.Unlocked, det.Races, det.Unlocked)
		}
	}
}

// Package kard reproduces the paper's §IX-D non-security use case: Kard-style
// dynamic data-race detection built on MPK protection faults (Ahmad et al.,
// ASPLOS'21). Each shared object lives under its own protection key; a
// thread entering a critical section has every object key access-disabled in
// its per-thread PKRU, so the first access to each object faults. The fault
// handler associates the object with the lock the thread holds and grants
// access; an access to the same object under a *different* lock is an
// inconsistent-lock-usage data race.
//
// The detector runs on the functional simulator (multi-threaded, per-thread
// PKRU, fault hooks). §IX-D's point — that SpecMPK preserves this usage
// because the WRPKRU-window always captures the disabling update before the
// access issues — is demonstrated separately by the pipeline tests; here we
// exercise the software protocol itself.
package kard

import (
	"fmt"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
)

// NoLock marks a thread outside any critical section.
const NoLock = -1

// Race is one detected inconsistent-lock usage.
type Race struct {
	PKey     int // the shared object's protection key
	Thread   int
	HeldLock int // lock held at the racing access
	OwnLock  int // lock the object was first associated with
	Addr     uint64
}

func (r Race) String() string {
	return fmt.Sprintf("race: object pkey %d accessed under lock %d by thread %d (owned by lock %d) at 0x%x",
		r.PKey, r.HeldLock, r.Thread, r.OwnLock, r.Addr)
}

// UnlockedAccess is an access to a shared object outside any critical
// section — also a bug Kard surfaces.
type UnlockedAccess struct {
	PKey   int
	Thread int
	Addr   uint64
}

// Detector wires the Kard protocol onto a functional machine.
type Detector struct {
	M *funcsim.Machine

	// lockAddrs maps a lock word's address to its lock id. A store of 1 is
	// acquire; a store of 0 is release.
	lockAddrs map[uint64]int
	// objKeys is the set of protection keys that guard shared objects.
	objKeys map[int]bool

	held    map[int]int // thread id -> held lock (NoLock when none)
	objLock map[int]int // object pkey -> owning lock

	Races    []Race
	Unlocked []UnlockedAccess
	Faults   int
}

// Attach installs the detector on m. lockAddrs maps lock-word addresses to
// lock ids; objKeys lists the protection keys of shared objects.
func Attach(m *funcsim.Machine, lockAddrs map[uint64]int, objKeys []int) *Detector {
	d := &Detector{
		M:         m,
		lockAddrs: lockAddrs,
		objKeys:   make(map[int]bool, len(objKeys)),
		held:      make(map[int]int),
		objLock:   make(map[int]int),
	}
	for _, k := range objKeys {
		d.objKeys[k] = true
	}
	for _, t := range m.Threads {
		d.held[t.ID] = NoLock
		d.lockdown(t)
	}
	m.OnInst = d.onInst
	m.FaultHandler = d.onFault
	return d
}

// lockdown disables every shared-object key in the thread's PKRU.
func (d *Detector) lockdown(t *funcsim.Thread) {
	for k := range d.objKeys {
		t.PKRU = t.PKRU.WithKey(k, mpk.Perm{AD: true})
	}
}

func (d *Detector) onInst(t *funcsim.Thread, pc uint64, in isa.Inst) {
	if !in.Op.IsStore() {
		return
	}
	addr := t.Regs[in.Rs1] + uint64(in.Imm)
	if in.Rs1 == isa.RegZero {
		addr = uint64(in.Imm)
	}
	lock, ok := d.lockAddrs[addr]
	if !ok {
		return
	}
	val := t.Regs[in.Rs2]
	if in.Rs2 == isa.RegZero {
		val = 0
	}
	if val != 0 {
		// Acquire: enter the critical section with all objects locked
		// down, so the first touch of each object faults and reveals the
		// (lock, object) association.
		d.held[t.ID] = lock
		d.lockdown(t)
	} else {
		d.held[t.ID] = NoLock
		d.lockdown(t)
	}
}

func (d *Detector) onFault(t *funcsim.Thread, f *mem.Fault) mem.FaultAction {
	return d.fault(f, t.ID, d.held[t.ID], &t.PKRU)
}

// fault is Kard's trap handler on either machine. A pkey fault on a shared
// object associates the object with lock, the lock thread holds, on the
// object's first fault; a later fault under another lock is a race, and
// one under NoLock an unlocked access. Then it grants the object's key in
// *pkru and retries the access. Any other fault stops.
func (d *Detector) fault(f *mem.Fault, thread, lock int, pkru *mpk.PKRU) mem.FaultAction {
	if f.Kind != mem.FaultPkey || !d.objKeys[f.PKey] {
		return mem.FaultStop
	}
	d.Faults++
	if lock == NoLock {
		d.Unlocked = append(d.Unlocked, UnlockedAccess{PKey: f.PKey, Thread: thread, Addr: f.Addr})
	} else if owner, known := d.objLock[f.PKey]; !known {
		d.objLock[f.PKey] = lock
	} else if owner != lock {
		d.Races = append(d.Races, Race{
			PKey: f.PKey, Thread: thread, HeldLock: lock, OwnLock: owner, Addr: f.Addr,
		})
	}
	*pkru = pkru.WithKey(f.PKey, mpk.Perm{})
	return mem.FaultRetry
}

// Scenario memory layout.
const (
	lockRegion = 0x20000000
	objARegion = 0x60000000
	objBRegion = 0x61000000
	objAKey    = 1
	objBKey    = 2
	lock1Addr  = lockRegion
	lock2Addr  = lockRegion + 8
)

// BuildScenario assembles a two-thread program. Thread 0 updates shared
// object A under lock 1. Thread 1 updates A under lock 1 when sameLock is
// true (clean) or under lock 2 when false (inconsistent lock usage — the
// race Kard detects).
func BuildScenario(sameLock bool) (*asm.Program, error) {
	b := asm.NewBuilder(0x10000)
	b.Region("locks", lockRegion, mem.PageSize, mem.ProtRW, 0)
	b.Region("objA", objARegion, mem.PageSize, mem.ProtRW, objAKey)
	b.Region("objB", objBRegion, mem.PageSize, mem.ProtRW, objBKey)

	emitWorker := func(name string, lockAddr int64, iters int64, slot int64) {
		f := b.Func(name)
		f.Movi(4, lockRegion)
		f.Movi(5, objARegion)
		f.Movi(9, iters)
		f.Label("loop")
		// acquire(lock)
		f.Movi(10, 1)
		f.St(10, isa.RegZero, lockAddr)
		// critical section: read-modify-write the shared counter
		f.Ld(11, 5, slot)
		f.Addi(11, 11, 1)
		f.St(11, 5, slot)
		// release(lock)
		f.St(isa.RegZero, isa.RegZero, lockAddr)
		f.Addi(9, 9, -1)
		f.Bne(9, isa.RegZero, "loop")
		f.Halt()
	}
	emitWorker("main", lock1Addr, 20, 0)
	second := int64(lock1Addr)
	if !sameLock {
		second = lock2Addr
	}
	emitWorker("worker", second, 20, 0)
	return b.Link()
}

// RunScenario builds and executes the scenario under the detector and
// returns it for inspection.
func RunScenario(sameLock bool) (*Detector, error) {
	prog, err := BuildScenario(sameLock)
	if err != nil {
		return nil, err
	}
	m, err := funcsim.New(prog)
	if err != nil {
		return nil, err
	}
	m.AddThread(prog.Symbols["worker"])
	det := Attach(m,
		map[uint64]int{lock1Addr: 1, lock2Addr: 2},
		[]int{objAKey, objBKey})
	if err := m.Run(1_000_000, 4); err != nil {
		return nil, err
	}
	return det, nil
}

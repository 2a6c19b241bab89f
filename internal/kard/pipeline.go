package kard

import (
	"specmpk/internal/asm"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/pipeline"
)

// PipelineResult is the outcome of running the Kard protocol on the
// cycle-level machine — the §IX-D argument that SpecMPK can replace MPK for
// this non-security use case because the disabling update is always
// captured in the WRPKRU-window and the precise fault still fires at
// retirement.
type PipelineResult struct {
	Races    []Race
	Unlocked []UnlockedAccess
	Faults   int
	Counter  uint64 // final value of the shared counter
	Finished bool
}

const lockVar = lockRegion + 16 // current-lock word the handler reads

// buildPipelineScenario emits a single-threaded program that enters two
// critical sections. Kard's instrumentation is visible in the code: lock
// acquisition records the lock id and locks every shared-object key down
// with a WRPKRU; the first object access in each section faults.
func buildPipelineScenario(sameLock bool) (*asm.Program, error) {
	b := asm.NewBuilder(0x10000)
	b.Region("locks", lockRegion, mem.PageSize, mem.ProtRW, 0)
	b.Region("objA", objARegion, mem.PageSize, mem.ProtRW, objAKey)

	lockdown := int64(mpk.AllowAll.WithKey(objAKey, mpk.Perm{AD: true}))

	f := b.Func("main")
	f.Movi(4, lockRegion)
	f.Movi(5, objARegion)
	f.Movi(26, lockdown)

	section := func(lock int64) {
		f.Movi(9, lock)
		f.St(9, 4, 16) // lockVar = lock (the acquire)
		f.Wrpkru(26)   // lock all shared objects down
		f.Ld(10, 5, 0) // first touch faults; handler associates + grants
		f.Addi(10, 10, 1)
		f.St(10, 5, 0)
		f.St(isa.RegZero, 4, 16) // release
	}
	section(1)
	secondLock := int64(1)
	if !sameLock {
		secondLock = 2
	}
	section(secondLock)
	f.Halt()
	return b.Link()
}

// RunPipelineScenario executes the protocol on the given microarchitecture.
func RunPipelineScenario(mode pipeline.Mode, sameLock bool) (*PipelineResult, error) {
	prog, err := buildPipelineScenario(sameLock)
	if err != nil {
		return nil, err
	}
	return runPipeline(mode, prog)
}

// runPipeline runs prog under Kard on the given microarchitecture. prog
// follows the scenario's protocol: it stores the id of the lock it acquires
// to lockVar, 0 on release, and locks the shared objects down itself.
func runPipeline(mode pipeline.Mode, prog *asm.Program) (*PipelineResult, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Mode = mode
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	// The detector's trap handler alone: the program's one thread (0)
	// holds the lock its lock word names, and none while the word is 0.
	d := &Detector{objKeys: map[int]bool{objAKey: true}, objLock: map[int]int{}}
	m.FaultHandler = func(f *mem.Fault, pkru *mpk.PKRU) mem.FaultAction {
		// The fault delivers at retirement, so every older store — in
		// particular the lock-id store — has committed: the handler reads
		// an architecturally precise lock word even on SpecMPK.
		lockWord, err := m.AS.ReadVirt64(lockVar)
		if err != nil {
			return mem.FaultStop
		}
		lock := int(lockWord)
		if lockWord == 0 {
			lock = NoLock
		}
		return d.fault(f, 0, lock, pkru)
	}
	if err := m.Run(10_000_000); err != nil {
		return nil, err
	}
	res := &PipelineResult{Races: d.Races, Unlocked: d.Unlocked, Faults: d.Faults, Finished: m.Halted()}
	res.Counter, _ = m.AS.ReadVirt64(objARegion)
	return res, nil
}

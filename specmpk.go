// Package specmpk is a from-scratch reproduction of "SpecMPK: Efficient
// In-Process Isolation with Speculative and Secure Permission Update
// Instruction" (HPCA 2025).
//
// It bundles a cycle-level out-of-order CPU simulator with Memory Protection
// Key support, three WRPKRU microarchitectures (the serialized baseline, the
// unprotected speculative design, and SpecMPK proper), an in-order
// functional reference machine, a synthetic SPEC-like workload suite with
// shadow-stack and code-pointer-integrity instrumentation, and the harnesses
// that regenerate every table and figure in the paper's evaluation.
//
// # Quick start
//
//	prog, _ := specmpk.ParseAsm(src)          // or specmpk.NewProgramBuilder
//	m, _ := specmpk.NewMachine(specmpk.DefaultConfig(), prog)
//	_ = m.Run(1_000_000)
//	fmt.Println(m.Stats.IPC())
//
// Workloads from the paper's evaluation run with one call:
//
//	res, _ := specmpk.RunWorkload("520.omnetpp_r", specmpk.SpecMPK, specmpk.Full)
//
// The package re-exports the underlying implementation types via aliases so
// the full surface (pipeline internals, assembler, workload generator,
// functional simulator) is reachable from this single import.
package specmpk

import (
	"fmt"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// Mode selects the WRPKRU microarchitecture (paper §VII): one row of the
// pipeline's policy table. ParseMode resolves policy names.
type Mode = pipeline.Mode

// The three microarchitectures the paper evaluates, then two extensions.
const (
	// Serialized models current hardware: WRPKRU drains the pipeline.
	Serialized = pipeline.ModeSerialized
	// NonSecure renames PKRU with no side-channel protection.
	NonSecure = pipeline.ModeNonSecure
	// SpecMPK is the paper's secure speculative design.
	SpecMPK = pipeline.ModeSpecMPK
	// DelayUpgrade is the Okapi-style design: loads that are permitted only
	// by a transient (uncommitted) PKRU upgrade stall until non-speculative;
	// stores keep executing and forwarding under the speculative view.
	DelayUpgrade = pipeline.ModeDelayUpgrade
	// NoForward is the forwarding-suppression-only ablation of SpecMPK:
	// suspect stores lose store-to-load forwarding, nothing else.
	NoForward = pipeline.ModeNoForward
)

// ParseMode resolves a policy name ("serialized", "specmpk", ...) to its
// Mode; the error lists every valid name.
func ParseMode(name string) (Mode, error) { return pipeline.ParseMode(name) }

// RegisteredModes returns every policy's Mode in table order; PolicyNames
// returns the matching names.
func RegisteredModes() []Mode { return pipeline.RegisteredModes() }

// PolicyNames lists the policy names in table order.
func PolicyNames() []string { return pipeline.PolicyNames() }

// Config is the machine configuration; DefaultConfig matches Table III.
type Config = pipeline.Config

// DefaultConfig returns the paper's Table III machine.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Machine is the cycle-level out-of-order core.
type Machine = pipeline.Machine

// Stats are the counters a simulation accumulates.
type Stats = pipeline.Stats

// NewMachine loads prog into a fresh machine.
func NewMachine(cfg Config, prog *Program) (*Machine, error) {
	return pipeline.New(cfg, prog)
}

// Program is a linked executable image for the repro ISA.
type Program = asm.Program

// Builder constructs programs from Go code.
type Builder = asm.Builder

// NewProgramBuilder starts a program at the given code base address.
func NewProgramBuilder(codeBase uint64) *Builder { return asm.NewBuilder(codeBase) }

// ParseAsm assembles a text program (see internal/asm for the syntax).
func ParseAsm(src string) (*Program, error) { return asm.Parse(src) }

// Reference is the in-order functional reference machine — the correctness
// oracle for the cycle-level pipelines, and the substrate for multi-threaded
// use cases such as Kard-style data-race detection.
type Reference = funcsim.Machine

// NewReference loads prog into a functional machine.
func NewReference(prog *Program) (*Reference, error) { return funcsim.New(prog) }

// Workload is one catalogue entry of the synthetic SPEC-like suite.
type Workload = workload.Profile

// Variant selects the instrumentation level (Fig. 4 methodology).
type Variant = workload.Variant

// Instrumentation variants.
const (
	// Full applies the complete protection scheme.
	Full = workload.VariantFull
	// NopStub replaces each WRPKRU with a NOP (isolates compiler overhead).
	NopStub = workload.VariantNop
	// Uninstrumented is the unprotected baseline program.
	Uninstrumented = workload.VariantNone
)

// Workloads returns the full benchmark catalogue (SPEC2017+SS and
// SPEC2006+CPI entries, named as in the paper's figures).
func Workloads() []Workload { return workload.Catalog() }

// WorkloadByName finds a catalogue entry.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// Result summarises one workload simulation.
type Result struct {
	Workload string
	Mode     Mode
	Variant  Variant
	Stats    Stats
}

// IPC returns the run's retired instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// RunWorkload builds the named workload at the given instrumentation level
// and runs it to completion on the given microarchitecture with the
// Table III configuration.
func RunWorkload(name string, mode Mode, v Variant) (Result, error) {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return RunWorkloadConfig(cfg, name, v)
}

// RunWorkloadConfig is RunWorkload with an explicit machine configuration.
func RunWorkloadConfig(cfg Config, name string, v Variant) (Result, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("specmpk: unknown workload %q", name)
	}
	prog, err := p.Build(v)
	if err != nil {
		return Result{}, err
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	if err := m.Run(500_000_000); err != nil {
		return Result{}, fmt.Errorf("specmpk: %s on %v: %w", name, cfg.Mode, err)
	}
	return Result{Workload: name, Mode: cfg.Mode, Variant: v, Stats: m.Stats}, nil
}

// RdpkruStub is the §V-C6 instrumentation variant: PKRU updates via
// glibc-pkey_set-style read-modify-write sequences.
const RdpkruStub = workload.VariantRdpkru

// Package api defines the specmpkd wire protocol: job specifications, job
// status, canonical results, progress events — and the content-addressed
// cache key that makes identical simulation requests (the common case in
// policy sweeps) collapse onto one execution and one cached result.
//
// Everything here is deliberately deterministic: a JobSpec normalizes to a
// canonical form (defaults applied, names validated) before hashing, results
// marshal to canonical JSON (struct field order is fixed, map keys sort), and
// the key folds in a simulator version string so a semantic change to the
// simulator invalidates every cached result at once.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"specmpk/internal/asm"
	"specmpk/internal/mem"
	"specmpk/internal/pipeline"
	"specmpk/internal/simpoint"
	"specmpk/internal/workload"
)

// Version names the simulation semantics a result was produced under. It is
// part of every cache key: bump it whenever a change makes previously cached
// results stale (new pipeline behaviour, workload generator changes, result
// schema changes).
//
// specmpk-sim/2: the fidelity knob (sampled SimPoint jobs) joined the spec's
// canonical form and Result grew the sampled section.
const Version = "specmpk-sim/2"

// Fidelity values for JobSpec.Fidelity.
const (
	// FidelityFull runs the whole program on the detailed machine — the
	// classic job path.
	FidelityFull = "full"
	// FidelitySampled runs the SimPoint methodology instead: profile the
	// program functionally, simulate only the representative intervals in
	// detail (fanned out across the worker pool), and extrapolate
	// whole-program CPI with an error bound.
	FidelitySampled = "sampled"
)

// StopSampled is the stop reason sampled results report: no single machine
// ran the program end to end, so none of the pipeline's stop reasons apply.
const StopSampled = "sampled"

// JobSpec is a simulation request. Exactly one of Workload and Asm selects
// the program.
type JobSpec struct {
	// Workload names a catalogue entry (workload.ByName; extension
	// workloads included).
	Workload string `json:"workload,omitempty"`
	// Asm is an inline assembly program (the specmpk-sim -asm equivalent),
	// for programs outside the catalogue.
	Asm string `json:"asm,omitempty"`
	// Variant is the instrumentation level: full | nop | none | rdpkru
	// ("" = full). Ignored for Asm jobs.
	Variant string `json:"variant,omitempty"`
	// Seed selects a BuildSeeded replication of the workload (0 = the
	// canonical program). Ignored for Asm jobs.
	Seed int64 `json:"seed,omitempty"`
	// Mode is the policy name ("" = the default config's mode). It is
	// authoritative: the Mode field inside Config is ignored, so specs and
	// cache keys name the policy rather than carry its pipeline.Mode index.
	Mode string `json:"mode,omitempty"`
	// Config overrides the Table III machine (nil = pipeline.DefaultConfig).
	Config *pipeline.Config `json:"config,omitempty"`
	// MaxCycles caps the run; 0 accepts the server's default budget. A job
	// that exhausts it completes with stop reason "cycle_limit" — this is
	// also the server's job-timeout mechanism.
	MaxCycles uint64 `json:"maxCycles,omitempty"`
	// MaxWallMS caps the job's wall-clock execution time in milliseconds;
	// 0 accepts the server's default (which may be unlimited). Unlike the
	// cycle budget, exhausting the wall-clock budget FAILS the job: how many
	// cycles fit in a wall-clock window depends on the host, so a partial
	// result would not be deterministic and is never cached.
	MaxWallMS uint64 `json:"maxWallMS,omitempty"`
	// Fidelity selects the methodology: FidelityFull ("" = full) runs the
	// whole program in detail; FidelitySampled profiles the program once,
	// simulates only its representative SimPoint intervals in detail (fanned
	// out across the server's worker pool), and extrapolates whole-program
	// CPI with an error bound. Fidelity is part of the cache key: sampled and
	// full results never answer for each other.
	Fidelity string `json:"fidelity,omitempty"`
	// Sampled tunes the sampled methodology (nil = defaults). Only valid
	// when Fidelity is "sampled".
	Sampled *SampledParams `json:"sampled,omitempty"`
}

// SampledParams tunes a sampled-fidelity job. Zero fields take the defaults
// (DefaultSampledParams); Normalize materializes them, so the cache key sees
// only explicit values.
type SampledParams struct {
	// IntervalLen is the SimPoint interval length in instructions.
	IntervalLen uint64 `json:"intervalLen,omitempty"`
	// MaxInsts bounds the profiling pass.
	MaxInsts uint64 `json:"maxInsts,omitempty"`
	// K is the number of clusters (representative intervals simulated).
	K int `json:"k,omitempty"`
	// Seed makes the clustering deterministic.
	Seed int64 `json:"seed,omitempty"`
	// WarmInsts is the per-checkpoint warm-up log depth in instructions.
	WarmInsts uint64 `json:"warmInsts,omitempty"`
}

// Upper bounds on the sampled parameters, checked by Normalize so an
// oversized request gets a 400 before it is queued. Each is at least 16× its
// default and above every value a job spec in this repo uses. They bound
// what a sampled job's profiling pass allocates: each of the up to
// MaxSampledK checkpoints encodes up to MaxSampledWarmInsts warm records of
// at most 21 bytes each (80 × 2^18 × 21 B = 420 MiB at worst; catalogue
// records average 1.3 B), and the profile keeps one 264-byte vector per
// interval (at most 2^26 / 1000 intervals, ≈ 17 MiB).
const (
	MaxSampledIntervalLen = 1 << 22
	MaxSampledMaxInsts    = 1 << 26
	MaxSampledK           = 80
	MaxSampledWarmInsts   = 1 << 18
)

// MaxAsmMappedBytes bounds what an asm job's program maps, its code pages
// plus every .region, checked by Normalize. Program.Load builds one
// page-table entry per 4 KiB page up front, so without the bound a request
// of a few dozen bytes naming a 2^40-byte region would make a worker insert
// 2^28 entries. 64 MiB is over 16× the largest catalogue program (2.3 MiB).
const MaxAsmMappedBytes = 64 << 20

// asmMappedBytes returns how much Program.Load maps for p: its code rounded
// up to whole pages (at least one), plus every region. The sum saturates
// just above MaxAsmMappedBytes per term, so it cannot wrap. A region whose
// end wraps past the top of the address space is an error.
func asmMappedBytes(p *asm.Program) (uint64, error) {
	mapped := max((p.CodeSize()+mem.PageSize-1)&^(mem.PageSize-1), mem.PageSize)
	for _, r := range p.Regions {
		if r.Base+r.Size < r.Base {
			return 0, fmt.Errorf("api: asm region %q: end overflows (base %#x, size %#x)", r.Name, r.Base, r.Size)
		}
		mapped += min(r.Size, MaxAsmMappedBytes+1)
	}
	return mapped, nil
}

// DefaultSampledParams mirrors simpoint.DefaultConfig with the warm-up depth
// spelled out: 20 k-instruction intervals over the first 1 M instructions,
// 5 clusters, seed 1.
func DefaultSampledParams() SampledParams {
	c := simpoint.DefaultConfig()
	return SampledParams{
		IntervalLen: c.IntervalLen,
		MaxInsts:    c.MaxInsts,
		K:           c.K,
		Seed:        c.Seed,
		WarmInsts:   simpoint.DefaultWarmInsts,
	}
}

// SimPointConfig converts the params to the simpoint package's config.
func (p SampledParams) SimPointConfig() simpoint.Config {
	return simpoint.Config{
		IntervalLen: p.IntervalLen,
		MaxInsts:    p.MaxInsts,
		K:           p.K,
		Seed:        p.Seed,
		WarmInsts:   p.WarmInsts,
	}
}

// Normalize validates the spec and returns its canonical form: program
// source checked, names parsed and re-rendered, defaults materialized, and
// the embedded Config.Mode zeroed in favour of the Mode name. Two specs that
// normalize equal simulate identically, so the cache key hashes the
// normalized form.
func (s JobSpec) Normalize() (JobSpec, error) {
	out := s
	switch {
	case s.Workload == "" && s.Asm == "":
		return out, fmt.Errorf("api: job spec needs a workload or an asm program")
	case s.Workload != "" && s.Asm != "":
		return out, fmt.Errorf("api: workload and asm are mutually exclusive")
	case s.Workload != "":
		if _, ok := workload.ByName(s.Workload); !ok {
			return out, fmt.Errorf("api: unknown workload %q", s.Workload)
		}
		if s.Variant == "" {
			out.Variant = workload.VariantFull.String()
		}
		if _, err := workload.ParseVariant(out.Variant); err != nil {
			return out, err
		}
	default: // Asm
		prog, err := asm.Parse(s.Asm)
		if err != nil {
			return out, fmt.Errorf("api: asm program: %w", err)
		}
		mapped, err := asmMappedBytes(prog)
		if err != nil {
			return out, err
		}
		if mapped > MaxAsmMappedBytes {
			return out, fmt.Errorf("api: asm program maps %d bytes of code and regions, above the bound %d", mapped, MaxAsmMappedBytes)
		}
		if s.Variant != "" || s.Seed != 0 {
			return out, fmt.Errorf("api: variant/seed apply to catalogue workloads, not asm jobs")
		}
	}

	cfg := pipeline.DefaultConfig()
	if s.Config != nil {
		cfg = *s.Config
	}
	if out.Mode == "" {
		out.Mode = cfg.Mode.String()
	}
	mode, err := pipeline.ParseMode(out.Mode)
	if err != nil {
		return out, err
	}
	// Reject a config the worker could not build, or that would make it
	// allocate beyond the pipeline's size bounds, before it is queued.
	cfg.Mode = mode
	if err := cfg.Validate(); err != nil {
		return out, fmt.Errorf("api: config: %w", err)
	}
	// The canonical form carries the policy by name only: the name is what
	// a client chose, so the numeric Config.Mode never reaches the key.
	cfg.Mode = 0
	out.Config = &cfg

	switch s.Fidelity {
	case "", FidelityFull:
		out.Fidelity = FidelityFull
		if s.Sampled != nil {
			return out, fmt.Errorf("api: sampled params apply to sampled-fidelity jobs only")
		}
	case FidelitySampled:
		out.Fidelity = FidelitySampled
		sp := DefaultSampledParams()
		if s.Sampled != nil {
			o := *s.Sampled
			if o.IntervalLen != 0 {
				sp.IntervalLen = o.IntervalLen
			}
			if o.MaxInsts != 0 {
				sp.MaxInsts = o.MaxInsts
			}
			if o.K != 0 {
				sp.K = o.K
			}
			if o.Seed != 0 {
				sp.Seed = o.Seed
			}
			if o.WarmInsts != 0 {
				sp.WarmInsts = o.WarmInsts
			}
		}
		switch {
		case sp.IntervalLen < 1000:
			return out, fmt.Errorf("api: sampled intervalLen %d too short (minimum 1000)", sp.IntervalLen)
		case sp.K < 1:
			return out, fmt.Errorf("api: sampled k must be positive")
		case sp.MaxInsts < sp.IntervalLen:
			return out, fmt.Errorf("api: sampled maxInsts %d below one interval (%d)", sp.MaxInsts, sp.IntervalLen)
		}
		for _, b := range [...]struct {
			name   string
			v, max uint64
		}{
			{"intervalLen", sp.IntervalLen, MaxSampledIntervalLen},
			{"maxInsts", sp.MaxInsts, MaxSampledMaxInsts},
			{"k", uint64(sp.K), MaxSampledK},
			{"warmInsts", sp.WarmInsts, MaxSampledWarmInsts},
		} {
			if b.v > b.max {
				return out, fmt.Errorf("api: sampled %s %d above the bound %d", b.name, b.v, b.max)
			}
		}
		out.Sampled = &sp
	default:
		return out, fmt.Errorf("api: unknown fidelity %q (want %q or %q)", s.Fidelity, FidelityFull, FidelitySampled)
	}
	return out, nil
}

// Key returns the content-addressed cache key: SHA-256 over the simulator
// version and the normalized spec's canonical JSON. Identical requests —
// regardless of which defaults were spelled out — hash identically.
func (s JobSpec) Key() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// profileIdentity is exactly what a sampled job's profiling pass depends on:
// the program and the profiling parameters. The machine config and the mode
// only affect detailed simulation, so they are deliberately absent — two
// sampled specs with equal profile keys share one cached plan.
type profileIdentity struct {
	Workload    string `json:"workload,omitempty"`
	Asm         string `json:"asm,omitempty"`
	Variant     string `json:"variant,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	IntervalLen uint64 `json:"intervalLen"`
	MaxInsts    uint64 `json:"maxInsts"`
	K           int    `json:"k"`
	ClusterSeed int64  `json:"clusterSeed"`
	WarmInsts   uint64 `json:"warmInsts"`
}

// ProfileKey returns the content-addressed identity of a sampled job's
// profiling product (the simpoint plan: chosen points plus checkpoints).
// It is a strict reduction of the job key: everything that does not change
// the profile — machine config, policy mode, cycle/wall budgets — is
// excluded, which is what lets a policy sweep over one workload reuse a
// single cached profile.
func (s JobSpec) ProfileKey() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	if n.Fidelity != FidelitySampled {
		return "", fmt.Errorf("api: profile keys apply to sampled-fidelity jobs")
	}
	id := profileIdentity{
		Workload:    n.Workload,
		Asm:         n.Asm,
		Variant:     n.Variant,
		Seed:        n.Seed,
		IntervalLen: n.Sampled.IntervalLen,
		MaxInsts:    n.Sampled.MaxInsts,
		K:           n.Sampled.K,
		ClusterSeed: n.Sampled.Seed,
		WarmInsts:   n.Sampled.WarmInsts,
	}
	b, err := json.Marshal(id)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte("\nprofile\n"))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Program builds the job's program. The spec must be normalized (or at
// least valid).
func (s JobSpec) Program() (*asm.Program, error) {
	if s.Asm != "" {
		return asm.Parse(s.Asm)
	}
	p, ok := workload.ByName(s.Workload)
	if !ok {
		return nil, fmt.Errorf("api: unknown workload %q", s.Workload)
	}
	v := workload.VariantFull
	if s.Variant != "" {
		var err error
		if v, err = workload.ParseVariant(s.Variant); err != nil {
			return nil, err
		}
	}
	return p.BuildSeeded(v, s.Seed)
}

// MachineConfig resolves the pipeline configuration with the named mode
// applied.
func (s JobSpec) MachineConfig() (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	if s.Config != nil {
		cfg = *s.Config
	}
	if s.Mode != "" {
		mode, err := pipeline.ParseMode(s.Mode)
		if err != nil {
			return cfg, err
		}
		cfg.Mode = mode
	}
	return cfg, nil
}

// SpecFor converts one experiment-runner simulation request into a job spec
// — the bridge the specmpk-bench -remote path uses.
func SpecFor(workloadName string, v workload.Variant, cfg pipeline.Config) JobSpec {
	mode := cfg.Mode.String()
	cfg.Mode = 0
	return JobSpec{
		Workload: workloadName,
		Variant:  v.String(),
		Mode:     mode,
		Config:   &cfg,
	}
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether a job state is final.
func Terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// JobInfo is a job's externally visible status.
type JobInfo struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
	// TraceID is the job's request-trace identifier (hex): the trace the
	// client propagated via the traceparent header, or a daemon-minted root
	// when none arrived. Every span the job leaves in the flight recorder
	// (GET /v1/debug/spans?trace=...) and every structured log line about
	// the job carries it. Empty when the daemon has tracing disabled and no
	// context was propagated.
	TraceID string `json:"traceID,omitempty"`
	// Cached: the job was answered from the content-addressed result cache
	// without running.
	Cached bool `json:"cached,omitempty"`
	// Deduped: the job attached to an identical in-flight execution instead
	// of enqueueing its own (single-flight). Deduped jobs share the primary
	// execution's result — and its cancellation.
	Deduped bool   `json:"deduped,omitempty"`
	Error   string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	// QueueWaitMS is how long the job's execution waited for a worker
	// (milliseconds), present once the job has started. Deduped jobs report
	// their primary execution's wait.
	QueueWaitMS float64 `json:"queueWaitMS,omitempty"`
	// WallMS is the execution's wall-clock run time (milliseconds), present
	// once the job has finished. Cache-hit jobs never ran, so they omit it.
	WallMS float64 `json:"wallMS,omitempty"`

	// Result is the canonical result JSON (a Result), present once State is
	// "done". It is byte-identical across identical submissions.
	Result json.RawMessage `json:"result,omitempty"`
}

// Result is a completed simulation's canonical output. Its JSON encoding is
// deterministic: struct field order is fixed and the metrics map marshals
// with sorted keys, so equal runs produce equal bytes.
type Result struct {
	Key        string         `json:"key"`
	Version    string         `json:"version"`
	Spec       JobSpec        `json:"spec"`
	StopReason string         `json:"stopReason"`
	Stats      pipeline.Stats `json:"stats"`
	// Metrics is the machine's full unified stats-registry snapshot
	// (stats.Snapshot.Flat). Sampled results carry a small synthesized map
	// instead (sampled.* entries) — there is no single machine to snapshot.
	Metrics map[string]any `json:"metrics"`
	// Sampled is the sampled-fidelity section: the extrapolation, its error
	// bound and the per-interval evidence. Present exactly when StopReason is
	// "sampled".
	Sampled *SampledResult `json:"sampled,omitempty"`
}

// SampledPoint is one representative interval's detailed simulation inside a
// sampled result.
type SampledPoint struct {
	// Index is the interval's position in the profiled execution.
	Index uint64 `json:"index"`
	// Weight is the fraction of profiled intervals its cluster covers.
	Weight float64 `json:"weight"`
	// Cycles/Insts/CPI are the interval's detailed-simulation measurements.
	Cycles uint64  `json:"cycles"`
	Insts  uint64  `json:"insts"`
	CPI    float64 `json:"cpi"`
}

// SampledResult is the sampled-fidelity extrapolation: what was profiled,
// which intervals stood for the whole program, and the weighted recombination
// with its error bound. Its JSON form is deterministic — a sampled job is as
// cacheable and byte-reproducible as a full one.
type SampledResult struct {
	// Params are the normalized sampling parameters the job ran under.
	Params SampledParams `json:"params"`
	// ProfileKey identifies the profiling product (JobSpec.ProfileKey);
	// sampled jobs sharing it shared — or could have shared — one plan.
	ProfileKey string `json:"profileKey"`
	// Intervals is how many intervals the profile produced; TotalInsts is
	// the instruction count the extrapolation covers.
	Intervals  int    `json:"intervals"`
	TotalInsts uint64 `json:"totalInsts"`
	// Points are the representative intervals, heaviest cluster first.
	Points []SampledPoint `json:"points"`
	// CPI/IPC are the cluster-weighted whole-program estimates, and
	// EstimatedCycles the extrapolated cycle count (CPI * TotalInsts).
	CPI             float64 `json:"cpi"`
	IPC             float64 `json:"ipc"`
	EstimatedCycles uint64  `json:"estimatedCycles"`
	// ErrorBound is the relative half-width of the CPI confidence interval:
	// the full-fidelity CPI is expected within CPI * (1 ± ErrorBound).
	ErrorBound float64 `json:"errorBound"`
}

// Healthz is the /v1/healthz diagnostic payload: enough to tell which
// daemon answered (simulator version decides cache-key compatibility), how
// long it has been up, how it is provisioned, and how loaded it is. The
// cluster prober reads only Status and Version; the load fields are for
// operators and dashboards.
type Healthz struct {
	Status string `json:"status"` // "ok" while serving, "draining" during shutdown
	// Version is the simulator/cache-key version (api.Version): two daemons
	// with equal Version produce interchangeable cached results.
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	// Workers is the worker-pool size.
	Workers   int       `json:"workers"`
	UptimeMS  int64     `json:"uptimeMS"`
	StartedAt time.Time `json:"startedAt"`
	// QueueDepth is how many executions are waiting for a worker right now;
	// QueueCap is the bounded queue's capacity (submits beyond it get 503).
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	// JobsInFlight is how many executions have started and not yet ended:
	// simulating on a worker or forwarded to a cluster peer.
	JobsInFlight int `json:"jobsInFlight"`
}

// Cluster-coordination headers. Both are markers ("1" when set); their
// absence is the common single-node case.
const (
	// HeaderForwarded marks a submit that a cluster coordinator already
	// placed: the receiving daemon must simulate (or serve from cache)
	// locally and never forward again, which is what makes routing loops
	// impossible even when peers disagree about ring membership.
	HeaderForwarded = "X-Specmpk-Forwarded"
	// HeaderResubmit marks a submit that re-places a job whose first
	// placement died mid-run. The daemon counts these
	// (server.jobs.resubmitted) so chaos drills can prove recovery happened
	// via content-addressed resubmission rather than luck.
	HeaderResubmit = "X-Specmpk-Resubmit"
)

// Event is one line of a job's progress stream: an interval snapshot (the
// same cadence as specmpk-sim -stats-interval) or a state transition.
type Event struct {
	Seq uint64 `json:"seq"`
	// State is set on transition events (running, done, failed, cancelled).
	State string `json:"state,omitempty"`
	// Cycle/Insts are cumulative simulated progress; IPC is the interval's.
	Cycle uint64  `json:"cycle"`
	Insts uint64  `json:"insts"`
	IPC   float64 `json:"ipc"`
	// Final marks the last event of the stream.
	Final bool `json:"final,omitempty"`
	// Job is the job's terminal status, result bytes included, on the
	// final line of the HTTP events stream (GET /v1/jobs/{id}/events), so a
	// waiting client needs no status read. Only that line carries it, and
	// it is absent when the job has already left the retention window.
	Job *JobInfo `json:"job,omitempty"`
}

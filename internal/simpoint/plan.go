package simpoint

import (
	"context"
	"fmt"
	"math"
	"sort"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
)

// Plan is the reusable product of one profiling pass over one program: the
// chosen simulation points and a restorable checkpoint at each one. A plan
// is independent of any machine configuration — the same plan warm-starts a
// detailed machine for every policy in a sweep — and is immutable after
// BuildPlan, so concurrent SimulatePoint calls (the server's parallel
// interval fan-out) share it without locking.
type Plan struct {
	Cfg Config
	// Intervals is how many intervals the profile produced.
	Intervals int
	// TotalInsts is the instruction count the profile covered
	// (Intervals * IntervalLen; the trailing partial interval, when kept,
	// counts as one full interval, matching its clustering weight).
	TotalInsts uint64
	// Points are the chosen simulation points, heaviest cluster first.
	Points []Point
	// Checkpoints[i] is the restorable snapshot at Points[i]'s interval.
	Checkpoints []*Checkpoint
}

// BuildPlan profiles prog, clusters the intervals, and captures a
// checkpoint at each representative interval in a single additional
// functional pass. This is the "profile once per program" step the
// simulation server caches content-addressed.
func BuildPlan(prog *asm.Program, cfg Config) (*Plan, error) {
	intervals, err := Profile(prog, cfg)
	if err != nil {
		return nil, err
	}
	points := Choose(intervals, cfg)
	if len(points) == 0 {
		return nil, fmt.Errorf("simpoint: clustering produced no points")
	}
	// Choose orders by descending weight; make ties deterministic by index
	// so a plan's point order — and everything derived from it, including
	// canonical sampled results — is a pure function of the profile.
	sort.SliceStable(points, func(i, j int) bool {
		if points[i].Weight != points[j].Weight {
			return points[i].Weight > points[j].Weight
		}
		return points[i].Interval.Index < points[j].Interval.Index
	})
	idxs := make([]uint64, len(points))
	for i, pt := range points {
		idxs[i] = pt.Interval.Index
	}
	cps, err := CaptureCheckpoints(prog, cfg, idxs)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Cfg:         cfg,
		Intervals:   len(intervals),
		TotalInsts:  uint64(len(intervals)) * cfg.IntervalLen,
		Points:      points,
		Checkpoints: cps,
	}, nil
}

// SimulatePoint simulates point i in detail under mcfg: restore the
// checkpoint into a fresh machine and run one interval under ctx, which the
// run polls every 1,024 cycles — a cancelled or expired ctx stops the
// interval with its error and Stats.Stop = StopCancelled (or StopDeadline).
// Safe to call concurrently for different (or the same) i — every call
// builds its own machine, and releases its large arrays for the next
// interval's machine once the stats are copied (pipeline.Machine.Release).
func (p *Plan) SimulatePoint(ctx context.Context, i int, mcfg pipeline.Config, prog *asm.Program) (pipeline.Stats, error) {
	if i < 0 || i >= len(p.Checkpoints) {
		return pipeline.Stats{}, fmt.Errorf("simpoint: point %d out of range (%d points)", i, len(p.Checkpoints))
	}
	m, err := p.Checkpoints[i].NewMachine(mcfg, prog)
	if err != nil {
		return pipeline.Stats{}, err
	}
	// Generous cycle budget: even a CPI-800 interval completes, while a
	// pathological machine still terminates deterministically.
	budget := p.Cfg.IntervalLen*800 + 400_000
	err = m.RunContext(ctx, p.Cfg.IntervalLen, budget)
	st := m.Stats
	m.Release()
	return st, err
}

// Estimate is a sampled whole-program prediction recombined from the
// per-point detailed simulations.
type Estimate struct {
	// CPI/IPC are the cluster-weighted whole-program estimates.
	CPI float64
	IPC float64
	// ErrorBound is the relative half-width of the estimate's confidence
	// interval on CPI: the true full-fidelity CPI is expected within
	// CPI * (1 ± ErrorBound). It combines the between-cluster statistical
	// term (one representative per cluster) with a floor covering
	// laptop-scale warm-up bias.
	ErrorBound float64
	// Cycles is the extrapolated whole-program cycle count (CPI * Insts).
	Cycles uint64
	// Insts is the profiled instruction count the extrapolation covers.
	Insts uint64
}

// Error-bound constants: a 95% normal quantile for the between-cluster
// sampling term, and a floor. The floor dominates at this repository's
// laptop-scale interval lengths, where the systematic warm-up difference
// between a bounded warm-up log and a full run's training ramp is larger
// than the statistical term; at the paper's 100M-instruction intervals the
// statistical term would dominate instead.
const (
	errorBoundZ     = 1.96
	errorBoundFloor = 0.25
)

// Estimate recombines per-point statistics (aligned with p.Points) into the
// weighted whole-program estimate and its error bound.
func (p *Plan) Estimate(stats []pipeline.Stats) (Estimate, error) {
	if len(stats) != len(p.Points) {
		return Estimate{}, fmt.Errorf("simpoint: %d stats for %d points", len(stats), len(p.Points))
	}
	var cpiHat, wSum float64
	cpis := make([]float64, len(stats))
	for i, st := range stats {
		if st.Insts == 0 {
			return Estimate{}, fmt.Errorf("simpoint: point %d retired no instructions", i)
		}
		cpis[i] = float64(st.Cycles) / float64(st.Insts)
		cpiHat += p.Points[i].Weight * cpis[i]
		wSum += p.Points[i].Weight
	}
	if wSum == 0 {
		return Estimate{}, fmt.Errorf("simpoint: no weight")
	}
	cpiHat /= wSum
	// Between-cluster variance, weighted; each cluster contributes one
	// sample, so the standard error of the weighted mean uses the pooled
	// variance scaled by the sum of squared weights.
	var variance, w2Sum float64
	for i, cpi := range cpis {
		w := p.Points[i].Weight / wSum
		d := cpi - cpiHat
		variance += w * d * d
		w2Sum += w * w
	}
	se := math.Sqrt(variance * w2Sum)
	bound := errorBoundZ * se / cpiHat
	if bound < errorBoundFloor {
		bound = errorBoundFloor
	}
	return Estimate{
		CPI:        cpiHat,
		IPC:        1 / cpiHat,
		ErrorBound: bound,
		Cycles:     uint64(math.Round(cpiHat * float64(p.TotalInsts))),
		Insts:      p.TotalInsts,
	}, nil
}

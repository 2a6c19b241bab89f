// Package simpoint implements the SimPoint methodology (Sherwood et al.,
// used by the paper's evaluation, §VII): profile a program into fixed-length
// instruction intervals described by basic-block vectors, cluster the
// intervals with k-means, pick one representative interval per cluster, and
// combine detailed simulations of the representatives into a weighted CPI
// (Plan.Estimate).
//
// The paper profiles the first 100 G instructions at 100 M-instruction
// granularity and simulates the top five intervals; our workloads are
// laptop-scale so the defaults are proportionally smaller, but the machinery
// is the same.
package simpoint

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/isa"
)

// Dims is the dimensionality BBVs are random-projected to before
// clustering (SimPoint projects to 15; we keep a little more).
const Dims = 32

// Config controls profiling and clustering.
type Config struct {
	// IntervalLen is the interval length in instructions.
	IntervalLen uint64
	// MaxInsts bounds profiling (the paper's "first 100 billion").
	MaxInsts uint64
	// K is the number of clusters (the paper simulates the top 5).
	K int
	// Seed makes clustering deterministic.
	Seed int64
	// WarmInsts is the checkpoint warm-up log depth in instructions
	// (0 = DefaultWarmInsts): how much microarchitectural history each
	// checkpoint replays into a fresh machine before detailed simulation.
	WarmInsts uint64
}

// DefaultConfig profiles 1 M instructions at 20 k-instruction intervals
// into 5 clusters.
func DefaultConfig() Config {
	return Config{IntervalLen: 20_000, MaxInsts: 1_000_000, K: 5, Seed: 1}
}

// Interval is one profiled slice of execution: its number and its
// normalized, randomly projected basic-block vector.
type Interval struct {
	Index uint64
	Vec   [Dims]float64
}

// Point is a chosen simulation point.
type Point struct {
	Interval Interval
	Weight   float64 // fraction of profiled intervals its cluster covers
}

// Profile runs the program functionally, chopping execution into
// IntervalLen-instruction intervals and recording each interval's projected
// basic-block vector. A basic block is identified by its leader address;
// each executed block contributes its dynamic length to the vector.
func Profile(prog *asm.Program, cfg Config) ([]Interval, error) {
	m, err := funcsim.New(prog)
	if err != nil {
		return nil, err
	}
	var (
		intervals   []Interval
		vec         [Dims]float64
		blockLen    int
		leader      uint64
		leaderValid bool
		left        = cfg.IntervalLen // instructions until the interval ends
	)
	// addBlock adds the block's projection times its length, to the
	// dimensions the projection touches only: every other term would be
	// +0.0, and no entry of vec is ever -0.0, so the sums are the dense
	// ones bit for bit.
	addBlock := func() {
		if !leaderValid || blockLen == 0 {
			return
		}
		for _, tm := range project(leader) {
			vec[tm.dim] += tm.sign * float64(blockLen)
		}
		blockLen = 0
	}
	m.OnInst = func(t *funcsim.Thread, pc uint64, in isa.Inst) {
		if !leaderValid {
			leader = pc
			leaderValid = true
			blockLen = 0
		}
		blockLen++
		if in.Op.IsControl() || in.Op == isa.OpHalt {
			addBlock()
			leaderValid = false
		}
		if left--; left == 0 {
			addBlock()
			leaderValid = false
			normalize(&vec)
			intervals = append(intervals, Interval{Index: uint64(len(intervals)), Vec: vec})
			vec = [Dims]float64{}
			left = cfg.IntervalLen
		}
	}
	if err := m.Run(cfg.MaxInsts, 1); err != nil && err != funcsim.ErrLimit {
		return nil, err
	}
	// Close a substantial trailing partial interval. Every retired
	// instruction reached the hook: a fault would have ended the run above.
	count := m.Stats.Insts
	if rem := count % cfg.IntervalLen; rem > cfg.IntervalLen/2 {
		addBlock()
		normalize(&vec)
		intervals = append(intervals, Interval{Index: count / cfg.IntervalLen, Vec: vec})
	}
	if len(intervals) == 0 {
		return nil, fmt.Errorf("simpoint: program too short for interval length %d", cfg.IntervalLen)
	}
	return intervals, nil
}

// term is one signed unit of a projected basic block: sign (+1 or -1)
// on dimension dim.
type term struct {
	dim  int
	sign float64
}

// project hashes a basic-block leader address into four signed unit terms
// over the Dims-dimensional space (random projection of the full BBV). Two
// terms may share a dimension.
func project(leader uint64) [4]term {
	var v [4]term
	h := leader * 0x9e3779b97f4a7c15
	for i := range v {
		v[i].dim = int(h % Dims)
		h /= Dims
		v[i].sign = 1.0
		if h&1 == 1 {
			v[i].sign = -1
		}
		h >>= 1
	}
	return v
}

func normalize(v *[Dims]float64) {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// Choose clusters the intervals with k-means and returns one representative
// point per cluster (the interval nearest its centroid), weighted by
// cluster population, sorted by descending weight.
func Choose(intervals []Interval, cfg Config) []Point {
	k := cfg.K
	if k > len(intervals) {
		k = len(intervals)
	}
	// A deterministic per-call PRNG seeded from cfg.Seed (math/rand/v2;
	// nothing here touches the deprecated global source): identical seeds
	// must pick identical clusters, because the cluster choice is part of
	// the content-addressed identity of a sampled simulation.
	r := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x9e3779b97f4a7c15))
	// k-means++ style seeding: random distinct intervals.
	perm := r.Perm(len(intervals))
	cents := make([][Dims]float64, k)
	for i := 0; i < k; i++ {
		cents[i] = intervals[perm[i]].Vec
	}
	assign := make([]int, len(intervals))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, iv := range intervals {
			best, bestD := 0, math.Inf(1)
			for c := range cents {
				d := dist(iv.Vec, cents[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		var sums = make([][Dims]float64, k)
		var counts = make([]int, k)
		for i, iv := range intervals {
			c := assign[i]
			counts[c]++
			for d := 0; d < Dims; d++ {
				sums[c][d] += iv.Vec[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for d := 0; d < Dims; d++ {
				cents[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	var points []Point
	for c := 0; c < k; c++ {
		bestIdx, bestD, n := -1, math.Inf(1), 0
		for i, iv := range intervals {
			if assign[i] != c {
				continue
			}
			n++
			if d := dist(iv.Vec, cents[c]); d < bestD {
				bestIdx, bestD = i, d
			}
		}
		if bestIdx < 0 {
			continue
		}
		points = append(points, Point{
			Interval: intervals[bestIdx],
			Weight:   float64(n) / float64(len(intervals)),
		})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Weight > points[j].Weight })
	return points
}

func dist(a, b [Dims]float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

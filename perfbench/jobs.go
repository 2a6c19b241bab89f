package main

import (
	"fmt"
	"sort"

	"specmpk/internal/funcsim"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// Seed streams keep the job families disjoint: no warm-up job shares a key
// with a timed one.
const (
	streamTimed = 1
	streamWarm  = 2
)

// jobSeed derives a JobSpec.Seed from the benchmark seed, a stream and an
// index (SplitMix64). The result is positive, so it never selects the
// canonical (seed 0) program.
func jobSeed(seed int64, stream, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(index)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// policies lists every registered policy, in registration order:
// serialized, nonsecure, specmpk, delayupgrade, noforward.
func policies() []string { return pipeline.PolicyNames() }

// programsLongestFirst orders the catalogue by the functional instruction
// count of each program's canonical build, longest first, so a sweep starts
// its longest jobs first and ends on short ones. The count is a property of
// the program, not of the host, so the order is the same on every run.
func programsLongestFirst() ([]string, error) {
	type entry struct {
		name  string
		insts uint64
	}
	var es []entry
	for _, p := range workload.Catalog() {
		prog, err := p.Build(workload.VariantFull)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p.Name, err)
		}
		m, err := funcsim.New(prog)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", p.Name, err)
		}
		if err := m.Run(50_000_000, 1); err != nil && err != funcsim.ErrLimit {
			return nil, fmt.Errorf("run %s functionally: %w", p.Name, err)
		}
		es = append(es, entry{p.Name, m.Stats.Insts})
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].insts > es[j].insts })
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out, nil
}

// grid is the sweep job list: index i runs program group i/P under policy
// i%P, where a group is one program (longest first, wrapping around the
// catalogue) at one seed. The P policies of a group share the program, so
// they must retire the same instructions; the index in the seed keeps every
// key distinct.
type grid struct {
	seed     int64
	stream   int
	programs []string
	policies []string
	sampled  bool
	// maxCycles caps each job (0 = run to halt).
	maxCycles uint64
}

func (g grid) spec(i int) api.JobSpec {
	group := i / len(g.policies)
	s := api.JobSpec{
		Workload:  g.programs[group%len(g.programs)],
		Seed:      jobSeed(g.seed, g.stream, group),
		Mode:      g.policies[i%len(g.policies)],
		MaxCycles: g.maxCycles,
	}
	if g.sampled {
		s.Fidelity = api.FidelitySampled
	}
	return s
}

// size is one pass over every program under every policy.
func (g grid) size() int { return len(g.programs) * len(g.policies) }

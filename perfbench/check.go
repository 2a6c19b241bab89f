package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"specmpk/internal/server/api"
)

// cpiBuckets are the six CPI-stack buckets; every simulated cycle lands in
// exactly one, so their sum must equal pipeline.cycles.
var cpiBuckets = []string{"base", "frontend", "serialize", "rob_pkru_full", "memory", "squash_recovery"}

// tally counts checked answers. Every wrong answer counts as a failure
// against the attempts, whatever check caught it.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	examples  []string
}

func newTally() *tally { return &tally{reasons: make(map[string]int)} }

// attempt counts one attempted operation and, when err is non-nil, one
// failure of the given kind.
func (t *tally) attempt(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failLocked(kind, err)
	}
}

// fail counts a failure found by a check that spans several attempts (a
// policy group whose members disagree).
func (t *tally) fail(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(kind, err)
}

func (t *tally) failLocked(kind string, err error) {
	t.failed++
	t.reasons[kind]++
	if len(t.examples) < 5 {
		t.examples = append(t.examples, kind+": "+err.Error())
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// summary renders the failure kinds, most frequent first.
func (t *tally) summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return t.reasons[kinds[i]] > t.reasons[kinds[j]] })
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, t.reasons[k])
	}
	return strings.Join(parts, " ") + " | " + strings.Join(t.examples, " | ")
}

// verifyJob checks a job's terminal status and decodes its result: the job
// must end done, a full result's CPI stack must sum exactly to its cycles,
// and a sampled result must carry one point per cluster and a positive
// error bound.
func verifyJob(info api.JobInfo) (api.Result, error) {
	if info.State != api.StateDone {
		return api.Result{}, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	var res api.Result
	if err := json.Unmarshal(info.Result, &res); err != nil {
		return api.Result{}, fmt.Errorf("job %s: bad result: %w", info.ID, err)
	}
	return res, verifyResult(res)
}

func verifyResult(res api.Result) error {
	if res.Sampled != nil {
		return verifySampled(res.Sampled)
	}
	return verifyCPIStack(res.Metrics)
}

// verifyCPIStack checks the six pipeline.cpi.* buckets of a full result sum
// exactly to pipeline.cycles. Counts below 2^53 are exact as JSON numbers.
func verifyCPIStack(metrics map[string]any) error {
	cycles, ok := metrics["pipeline.cycles"].(float64)
	if !ok {
		return fmt.Errorf("result has no pipeline.cycles")
	}
	var sum float64
	for _, b := range cpiBuckets {
		v, ok := metrics["pipeline.cpi."+b].(float64)
		if !ok {
			return fmt.Errorf("result has no pipeline.cpi.%s", b)
		}
		sum += v
	}
	if sum != cycles {
		return fmt.Errorf("CPI buckets sum to %.0f, pipeline.cycles is %.0f", sum, cycles)
	}
	return nil
}

// verifySampled checks a sampled extrapolation: between one and K points,
// each a distinct interval of positive weight that retired instructions
// (the last interval may end early at the program's halt), weights summing
// to one, and a positive error bound.
func verifySampled(s *api.SampledResult) error {
	maxPoints := min(s.Params.K, s.Intervals)
	if n := len(s.Points); n < 1 || n > maxPoints {
		return fmt.Errorf("sampled result has %d points for at most %d clusters", n, maxPoints)
	}
	seen := make(map[uint64]bool, len(s.Points))
	var wsum float64
	for _, p := range s.Points {
		if seen[p.Index] {
			return fmt.Errorf("sampled interval %d chosen twice", p.Index)
		}
		seen[p.Index] = true
		if p.Weight <= 0 || p.Insts == 0 {
			return fmt.Errorf("sampled point %d: weight %g, %d insts", p.Index, p.Weight, p.Insts)
		}
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		return fmt.Errorf("sampled weights sum to %g", wsum)
	}
	if !(s.ErrorBound > 0) || !(s.CPI > 0) {
		return fmt.Errorf("sampled estimate CPI %g, error bound %g", s.CPI, s.ErrorBound)
	}
	return nil
}

// resultDigest hashes a result payload in compact form, so answers that
// travelled through differently indented JSON envelopes compare equal
// exactly when their values are byte-identical.
func resultDigest(raw json.RawMessage) ([32]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// policyGroups checks that the policies retire the same instruction count
// for the same run-to-halt program: the policies change timing, never the
// architectural outcome.
type policyGroups struct {
	mu     sync.Mutex
	groups map[string]map[string]uint64 // program identity -> policy -> insts
}

func newPolicyGroups() *policyGroups {
	return &policyGroups{groups: make(map[string]map[string]uint64)}
}

func (g *policyGroups) add(spec api.JobSpec, insts uint64) {
	id := fmt.Sprintf("%s/seed=%d", spec.Workload, spec.Seed)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.groups[id] == nil {
		g.groups[id] = make(map[string]uint64)
	}
	g.groups[id][spec.Mode] = insts
}

// check counts one failure per complete group (all policies present) whose
// members disagree, and returns how many complete groups it checked.
func (g *policyGroups) check(t *tally, policies int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]string, 0, len(g.groups))
	for id := range g.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	checked := 0
	for _, id := range ids {
		byPolicy := g.groups[id]
		if len(byPolicy) < policies {
			continue
		}
		checked++
		var want uint64
		var first string
		for mode, insts := range byPolicy {
			if first == "" {
				want, first = insts, mode
				continue
			}
			if insts != want {
				t.fail("policy_insts", fmt.Errorf("%s: %s retired %d insts, %s retired %d", id, first, want, mode, insts))
				break
			}
		}
	}
	return checked
}

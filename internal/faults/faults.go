// Package faults is a deterministic fault-injection framework for the
// specmpkd service path. Code under test declares named fault points at its
// seams (queue admission, worker loop, cache access, result marshalling,
// HTTP handling, event streaming); production traffic pays one atomic load
// per point. A seeded Plan arms a subset of points with an action — inject
// an error, panic, add latency, or drop the operation — gated by an
// after-N-hits trigger, a fire-count cap, and a probability drawn from a
// per-point PRNG seeded from the plan, so a given plan replays the same
// fault schedule run after run (modulo goroutine interleaving of the
// probability draws; count- and hit-gated rules are exact).
//
// The package keeps global fired/errors/panics/latency/drops counters that
// the server exports through its stats registry as the faults.* namespace.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a fired fault does to the operation that hit the point.
type Action string

// The injectable actions.
const (
	// ActionError makes the operation fail with an *Injected error.
	ActionError Action = "error"
	// ActionPanic panics with an *Injected value (the worker pool's panic
	// containment turns it into a failed job; anywhere else it is a bug the
	// chaos suite exists to find).
	ActionPanic Action = "panic"
	// ActionLatency sleeps DelayMS then lets the operation proceed.
	ActionLatency Action = "latency"
	// ActionDrop silently skips the operation: a cache put that never
	// lands, an event stream that ends mid-flight. Callers that can degrade
	// treat it as "didn't happen" rather than as a failure.
	ActionDrop Action = "drop"
)

// Rule arms one point with one action.
type Rule struct {
	// Point names a registered fault point ("server.cache.put").
	Point string `json:"point"`
	// Action is what firing does (default "error").
	Action Action `json:"action,omitempty"`
	// Probability of firing per eligible hit in (0,1]; 0 means always.
	Probability float64 `json:"probability,omitempty"`
	// AfterHits skips the first N hits before the rule becomes eligible.
	AfterHits uint64 `json:"afterHits,omitempty"`
	// Times caps how often the rule fires (0 = unlimited).
	Times uint64 `json:"times,omitempty"`
	// DelayMS is the added latency for ActionLatency.
	DelayMS int `json:"delayMS,omitempty"`
	// Message is carried in the injected error/panic value.
	Message string `json:"message,omitempty"`
}

// Plan is a set of rules plus the seed their probability draws derive from.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Injected is the error (or panic value) a fired fault produces. Callers
// can detect injected failures with errors.As / IsInjected and must treat
// them exactly like organic ones — that equivalence is what the chaos suite
// verifies.
type Injected struct {
	Point   string
	Action  Action
	Message string
}

func (e *Injected) Error() string {
	msg := e.Message
	if msg == "" {
		msg = string(e.Action)
	}
	return fmt.Sprintf("fault injected at %s: %s", e.Point, msg)
}

// IsInjected reports whether err came from a fired fault point.
func IsInjected(err error) bool {
	var inj *Injected
	return errors.As(err, &inj)
}

// IsDrop reports whether err is a fired drop action — the operation should
// be skipped silently, not failed.
func IsDrop(err error) bool {
	var inj *Injected
	return errors.As(err, &inj) && inj.Action == ActionDrop
}

// Point is one named fault site. Obtain with Register at package init; call
// Fire on the hot path. A disarmed point costs one atomic pointer load.
type Point struct {
	name  string
	state atomic.Pointer[pointState]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// pointState is the armed rule plus its trigger bookkeeping. A fresh state
// is installed on every Arm, so hit counts restart with the plan.
type pointState struct {
	rule  Rule
	hits  atomic.Uint64
	fired atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

var (
	regMu  sync.Mutex
	points = make(map[string]*Point)

	// Global counters, exported to the stats registry via the accessor funcs.
	cFired, cErrors, cPanics, cLatency, cDrops atomic.Uint64
)

// Register declares (or returns the existing) fault point with this name.
// Call it from package-level var initializers so every point exists before
// any plan is armed.
func Register(name string) *Point {
	if name == "" {
		panic("faults: empty point name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name}
	points[name] = p
	return p
}

// Names returns the sorted catalog of registered points.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Arm installs the plan: every rule must target a registered point, and at
// most one rule per point. Arming replaces any previous plan wholesale and
// resets per-point hit/fire counts (the global counters keep accumulating).
func Arm(plan Plan) error {
	regMu.Lock()
	defer regMu.Unlock()
	seen := make(map[string]bool, len(plan.Rules))
	states := make(map[string]*pointState, len(plan.Rules))
	for _, r := range plan.Rules {
		if _, ok := points[r.Point]; !ok {
			return fmt.Errorf("faults: plan targets unregistered point %q (have %s)",
				r.Point, knownLocked())
		}
		if seen[r.Point] {
			return fmt.Errorf("faults: plan has two rules for point %q", r.Point)
		}
		seen[r.Point] = true
		if r.Action == "" {
			r.Action = ActionError
		}
		switch r.Action {
		case ActionError, ActionPanic, ActionLatency, ActionDrop:
		default:
			return fmt.Errorf("faults: point %q: unknown action %q", r.Point, r.Action)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("faults: point %q: probability %v outside [0,1]", r.Point, r.Probability)
		}
		if r.Action == ActionLatency && r.DelayMS <= 0 {
			return fmt.Errorf("faults: point %q: latency action needs delayMS > 0", r.Point)
		}
		// Each point draws from its own PRNG, seeded from the plan seed and
		// the point name, so one point's draw sequence does not depend on
		// how traffic interleaves across points.
		h := fnv.New64a()
		h.Write([]byte(r.Point))
		states[r.Point] = &pointState{
			rule: r,
			rng:  rand.New(rand.NewSource(plan.Seed ^ int64(h.Sum64()))),
		}
	}
	// Install atomically per point: disarm everything, then arm the plan's.
	for name, p := range points {
		if st, ok := states[name]; ok {
			p.state.Store(st)
		} else {
			p.state.Store(nil)
		}
	}
	return nil
}

// Disarm clears every point back to the zero-cost production path.
func Disarm() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range points {
		p.state.Store(nil)
	}
}

func knownLocked() string {
	names := make([]string, 0, len(points))
	for name := range points {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// LoadFile reads a JSON Plan from path (the specmpkd -faults flag).
func LoadFile(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var plan Plan
	if err := json.Unmarshal(b, &plan); err != nil {
		return Plan{}, fmt.Errorf("faults: %s: %w", path, err)
	}
	return plan, nil
}

// Fire evaluates the point: nil when disarmed, ineligible, or a latency
// fault already slept; an *Injected error for error/drop actions; a panic
// with an *Injected value for panic actions. Callers fail the operation on
// a non-drop error and skip it silently on IsDrop.
func (p *Point) Fire() error {
	st := p.state.Load()
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	if n <= st.rule.AfterHits {
		return nil
	}
	if pr := st.rule.Probability; pr > 0 && pr < 1 {
		st.mu.Lock()
		miss := st.rng.Float64() >= pr
		st.mu.Unlock()
		if miss {
			return nil
		}
	}
	if st.rule.Times > 0 {
		// Reserve a fire slot; back out past the cap so the cap is exact
		// even under concurrent hits.
		if st.fired.Add(1) > st.rule.Times {
			st.fired.Add(^uint64(0))
			return nil
		}
	} else {
		st.fired.Add(1)
	}
	cFired.Add(1)
	switch st.rule.Action {
	case ActionLatency:
		cLatency.Add(1)
		time.Sleep(time.Duration(st.rule.DelayMS) * time.Millisecond)
		return nil
	case ActionPanic:
		cPanics.Add(1)
		panic(&Injected{Point: p.name, Action: ActionPanic, Message: st.rule.Message})
	case ActionDrop:
		cDrops.Add(1)
		return &Injected{Point: p.name, Action: ActionDrop, Message: st.rule.Message}
	default:
		cErrors.Add(1)
		return &Injected{Point: p.name, Action: ActionError, Message: st.rule.Message}
	}
}

// FiredCount returns how often this point has fired under the current plan
// (0 when disarmed).
func (p *Point) FiredCount() uint64 {
	st := p.state.Load()
	if st == nil {
		return 0
	}
	return st.fired.Load()
}

// Global counter accessors, read by the server's metrics source.

// Fired counts every fault fired since process start, across plans.
func Fired() uint64 { return cFired.Load() }

// Errors counts fired error actions.
func Errors() uint64 { return cErrors.Load() }

// Panics counts fired panic actions.
func Panics() uint64 { return cPanics.Load() }

// Latencies counts fired latency actions.
func Latencies() uint64 { return cLatency.Load() }

// Drops counts fired drop actions.
func Drops() uint64 { return cDrops.Load() }

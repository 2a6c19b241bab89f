package server

import (
	"context"
	"sync"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// execution is one actual simulation run — the producer that owns its key
// in the result store while pending. Several jobs can attach to one
// execution: the submit path collapses identical in-flight specs onto the
// primary execution (single-flight), so a sweep hammering the daemon with
// the same request costs one simulation.
type execution struct {
	key  string
	spec api.JobSpec // normalized

	// jobs are the jobs attached to this execution, primary first; appended
	// and read under Server.mu.
	jobs []*job

	ctx    context.Context
	cancel context.CancelFunc

	// queuedAt is when the execution entered the queue (construction time);
	// immutable, so readable without the mutex. started - queuedAt is the
	// queue wait the server.latency.queue_wait_ms histogram observes.
	queuedAt time.Time

	// Tracing. sc is the primary job's span context (zero when tracing is
	// disarmed): every execution-stage span — queue.wait, simulate, marshal —
	// parents onto it, so the whole lifecycle lands in the primary trace.
	// queueSpan opens at submit and closes when the run begins; simSpan is
	// the run's simulate span. sc and queueSpan are set before the execution
	// becomes reachable by whoever runs it.
	sc        otrace.SpanContext
	queueSpan *otrace.Span

	// simSpan and runStart (the start of the run, zero until it begins) are
	// touched only by whoever runs the execution: a pool worker, or its
	// forward and then, on the degrade ladder's last rung, the worker the
	// forward hands it to through the queue.
	simSpan  *otrace.Span
	runStart time.Time

	mu    sync.Mutex
	state string
	// final is the terminal outcome: reserved by claim, made visible by
	// publish (which sets state to final.state). A non-empty final.state
	// means the execution can end no other way.
	final    outcome
	started  time.Time
	finished time.Time

	// Event stream: a bounded replay buffer plus live subscribers. A late
	// subscriber first receives the buffered prefix, then live events.
	events []api.Event
	subs   map[chan api.Event]struct{}
	seq    uint64
}

// outcome is the whole of how an execution ends, carried in one value from
// whoever reaches the end to every attached job: its terminal state, error,
// result bytes (the canonical result JSON when state is done), the final
// event's progress figures, the run's stop reason and the result store's
// disposition of the key.
type outcome struct {
	state, errMsg string
	result        []byte
	cycle, insts  uint64
	stopReason    string
	cacheDisp     string // hit|filled|released|skipped_fault|uncacheable|disabled
}

// maxBufferedEvents bounds the replay buffer; older progress events are
// dropped (the terminal event is always retained by construction since it
// is published last).
const maxBufferedEvents = 1024

// subscriberSlack is how many live events a subscriber's channel holds
// beyond its replay. Over 10-second perfbench runs of all three workloads,
// in-process and HTTP subscribers alike, none was ever more than one live
// event behind; a subscriber that falls further behind loses progress
// events, never the final one (publishLocked).
const subscriberSlack = 16

func newExecution(parent context.Context, key string, spec api.JobSpec) *execution {
	ctx, cancel := context.WithCancel(parent)
	return &execution{
		key:      key,
		spec:     spec,
		ctx:      ctx,
		cancel:   cancel,
		queuedAt: time.Now(),
		state:    api.StateQueued,
		subs:     make(map[chan api.Event]struct{}),
	}
}

// resolvedExecution builds an execution already ended with o — the cache-hit
// path, where the result exists before any worker is involved. Its event
// stream replays the one final event.
func resolvedExecution(key string, spec api.JobSpec, o outcome) *execution {
	ex := newExecution(context.Background(), key, spec)
	ex.cancel()
	ex.claim(o)
	ex.publish()
	return ex
}

// snapshot returns the execution's externally visible state.
func (ex *execution) snapshot() (state, errMsg string, result []byte, started, finished time.Time) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if api.Terminal(ex.state) {
		errMsg, result = ex.final.errMsg, ex.final.result
	}
	return ex.state, errMsg, result, ex.started, ex.finished
}

// start transitions queued -> running, announces it on the event stream
// and returns the start time. It returns false if the execution's end is
// already claimed (cancelled while queued).
func (ex *execution) start() (time.Time, bool) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.final.state != "" {
		return time.Time{}, false
	}
	ex.state = api.StateRunning
	ex.started = time.Now()
	ex.publishLocked(api.Event{State: api.StateRunning})
	return ex.started, true
}

// progress publishes one interval snapshot, unless the execution's end is
// already published (a Cancel that won while the run finished its chunk):
// the final event stays the last.
func (ex *execution) progress(cycle, insts uint64, ipc float64) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if !api.Terminal(ex.state) {
		ex.publishLocked(api.Event{Cycle: cycle, Insts: insts, IPC: ipc})
	}
}

// claim reserves the execution's end for o. Exactly one caller wins, and it
// must publish afterwards: between the two it does the server-side
// bookkeeping, so whoever the terminal event wakes finds it done. It
// reports whether this call won.
func (ex *execution) claim(o outcome) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.final.state != "" {
		return false
	}
	ex.final = o
	return true
}

// claimed returns the claimed outcome (zero before any claim).
func (ex *execution) claimed() outcome {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.final
}

// publish makes the claimed outcome visible, once: the terminal state, the
// final event, and the close of every subscriber.
func (ex *execution) publish() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	o := ex.final
	if o.state == "" || api.Terminal(ex.state) {
		return
	}
	ex.state = o.state
	ex.finished = time.Now()
	ex.publishLocked(api.Event{State: o.state, Cycle: o.cycle, Insts: o.insts, Final: true})
	for ch := range ex.subs {
		close(ch)
		delete(ex.subs, ch)
	}
}

// publishLocked appends to the replay buffer and fans out to subscribers.
// A subscriber that cannot keep up loses intermediate progress events, but
// the last slot of its channel is kept for the final event, so every
// subscriber still attached receives it before publish closes the channel.
// Only publishers, holding ex.mu, send, so a channel with room stays so
// until the send.
func (ex *execution) publishLocked(ev api.Event) {
	ex.seq++
	ev.Seq = ex.seq
	ex.events = append(ex.events, ev)
	if len(ex.events) > maxBufferedEvents {
		ex.events = ex.events[len(ex.events)-maxBufferedEvents:]
	}
	for ch := range ex.subs {
		if ev.Final || len(ch) < cap(ch)-1 {
			ch <- ev
		}
	}
}

// subscribe returns a channel replaying the buffered events and then
// streaming live ones; the channel closes when the execution's end is
// published.
// The returned cancel detaches early.
func (ex *execution) subscribe() (<-chan api.Event, func()) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ch := make(chan api.Event, len(ex.events)+subscriberSlack)
	for _, ev := range ex.events {
		ch <- ev
	}
	if api.Terminal(ex.state) {
		close(ch)
		return ch, func() {}
	}
	ex.subs[ch] = struct{}{}
	return ch, func() {
		ex.mu.Lock()
		defer ex.mu.Unlock()
		if _, ok := ex.subs[ch]; ok {
			delete(ex.subs, ch)
			close(ch)
		}
	}
}

// job is one accepted submission: a client-visible handle onto an execution.
type job struct {
	id        string
	key       string
	cached    bool
	deduped   bool
	submitted time.Time
	exec      *execution
	retired   bool // in the retention window; guarded by Server.mu

	// traceID is the job's request trace (hex, "" when untraced); span is
	// the job's root span, open from submit to terminal state (nil when the
	// flight recorder is disarmed).
	traceID string
	span    *otrace.Span
}

// info renders the job's current JobInfo.
func (j *job) info() api.JobInfo {
	state, errMsg, result, started, finished := j.exec.snapshot()
	inf := api.JobInfo{
		ID:          j.id,
		Key:         j.key,
		TraceID:     j.traceID,
		State:       state,
		Cached:      j.cached,
		Deduped:     j.deduped,
		Error:       errMsg,
		SubmittedAt: j.submitted,
		Result:      result,
	}
	if !started.IsZero() {
		inf.StartedAt = &started
		inf.QueueWaitMS = ms(started.Sub(j.exec.queuedAt))
	}
	if !finished.IsZero() {
		inf.FinishedAt = &finished
		if !started.IsZero() {
			inf.WallMS = ms(finished.Sub(started))
		}
	}
	return inf
}

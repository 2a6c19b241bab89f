package main

import (
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// record is one timed request's outcome.
type record struct {
	index int
	spec  api.JobSpec
	// simulated marks a request that ran a simulation: every sweep job and
	// every cold job on service-cluster. Resubmissions are not.
	simulated bool
	// latencyMS is submit -> verified result.
	latencyMS float64
	// queueMS is the execution's wait for a worker (JobInfo.QueueWaitMS).
	queueMS float64
	stats   pipeline.Stats
	sampled *api.SampledResult
	// served marks a resubmission answered without simulating; dedup the
	// subset deduped onto an execution that had already finished.
	served, dedup bool
	// remote marks a cold job whose key a cluster peer owns.
	remote bool
}

// windowResult is one timed window: every request that completed in it,
// and how long the window lasted.
type windowResult struct {
	elapsed  time.Duration
	records  []record
	stealPct float64
}

// runWindow runs a fixed job list closed loop: clients goroutines each send
// their next request only after the previous one completed, until the list
// is done. It puts a GC barrier before the window and waits for every
// client. A fixed list gives a seed the same job multiset on a fast or a
// slow host; the list is sized so that the window lasts about the requested
// time on the reference host.
func runWindow(clients int, client func(c int, add func(record))) windowResult {
	var mu sync.Mutex
	var recs []record
	add := func(r record) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	runtime.GC()
	c0 := readCPUTimes()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c, add)
		}(c)
	}
	wg.Wait()
	return windowResult{elapsed: time.Since(t0), records: recs, stealPct: stealPct(c0, readCPUTimes())}
}

// jobsFor sizes a window: the simulating jobs the reference host completes
// in d at rate jobs per second, rounded to whole passes of pass jobs, and at
// least minSimulated, so p90 has ten samples beyond it.
func jobsFor(d time.Duration, rate float64, pass int) int {
	n := int(math.Round(d.Seconds() * rate / float64(pass)))
	for n*pass < minSimulated {
		n++
	}
	return n * pass
}

// minSimulated is the fewest simulating jobs a window holds.
const minSimulated = 100

// e2e is a window's end-to-end figures.
type e2e struct {
	jobsPerS        float64
	jobP50, jobP90  float64
	hitP50, hitP90  float64
	simulated, hits int
	queueP50        float64
	servedRatio     float64
	dedupOnDone     int
	remoteShare     float64
}

func summarize(w windowResult) e2e {
	var jobs, hits, queue []float64
	var out e2e
	served, remote := 0, 0
	for _, r := range w.records {
		if r.simulated {
			jobs = append(jobs, r.latencyMS)
			queue = append(queue, r.queueMS)
			if r.remote {
				remote++
			}
			continue
		}
		hits = append(hits, r.latencyMS)
		if r.served {
			served++
		}
		if r.dedup {
			out.dedupOnDone++
		}
	}
	out.simulated, out.hits = len(jobs), len(hits)
	out.jobsPerS = float64(len(w.records)) / w.elapsed.Seconds()
	out.jobP50, out.jobP90 = median(jobs), quantile(jobs, 0.9)
	out.hitP50, out.hitP90 = median(hits), quantile(hits, 0.9)
	out.queueP50 = median(queue)
	out.servedRatio = ratio(float64(served), float64(len(hits)))
	out.remoteShare = ratio(float64(remote), float64(len(jobs)))
	return out
}

// disposition names how a submission was answered.
func disposition(info api.JobInfo) string {
	switch {
	case info.Cached:
		return "hit"
	case info.Deduped:
		return "dedup"
	}
	return "miss"
}

// request opens the root span of one traced request (nil when untraced).
func request(rec *otrace.Recorder, i int, kind string) *otrace.Span {
	sp := rec.StartSpan(otrace.SpanContext{}, "request")
	sp.SetAttr("index", i)
	sp.SetAttr("kind", kind)
	return sp
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

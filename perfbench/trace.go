package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/workload"
)

// spanCapacity bounds the traced run's span recorder. A traced
// service-cluster run at -seconds 20 leaves about 26k spans; the drop count
// is reported, and should be zero.
const spanCapacity = 1 << 16

// layers are the span-name prefixes the self-time table reports; "bench"
// is the benchmark's own code between the calls.
var layers = []string{"api", "workload", "pipeline", "simpoint", "cluster", "bench"}

// traceRun is the per-layer half of a traced run. After the untraced
// window, it runs a traced window of the same length, recording a span
// around every call the benchmark makes into client, server and cluster,
// then replays the traced window's jobs single-threaded through each
// layer's public functions for up to as long again. It writes every
// span to path in Chrome/Perfetto format and returns the per-layer metrics.
func traceRun(e env, untraced windowResult, us e2e, window time.Duration, t *tally, acc accuracy, path string) (map[string]metric, error) {
	rec := otrace.NewRecorder(spanCapacity)
	before := e.counters()
	tw := e.window(rec, window)
	after := e.counters()
	ts := summarize(tw)
	delta := func(n string) float64 { return after[n] - before[n] }

	d := &decomposer{rec: rec, t: t}
	if ce, ok := e.(*clusterEnv); ok {
		d.cl = ce
	}
	replayed := d.replay(tw.records, window)
	spans := rec.Spans()
	if err := writeChrome(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# traced window %.3fs: %d requests; decomposition replayed %d jobs; %d spans (%d dropped) -> %s\n",
		tw.elapsed.Seconds(), len(tw.records), len(replayed), len(spans), rec.Dropped(), path)

	byName := make(map[string][]otrace.SpanData)
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	med := func(name string, scale float64, keep func(otrace.SpanData) bool) float64 {
		var xs []float64
		for _, sp := range byName[name] {
			if keep == nil || keep(sp) {
				xs = append(xs, sp.DurMS*scale)
			}
		}
		return median(xs)
	}
	disp := func(want ...string) func(otrace.SpanData) bool {
		return func(sp otrace.SpanData) bool {
			got, _ := sp.Attrs["disposition"].(string)
			for _, w := range want {
				if got == w {
					return true
				}
			}
			return false
		}
	}

	m := map[string]metric{
		"pipeline.allocs_per_kcycle": {1000 * ratio(float64(d.mallocs), float64(d.cycles)), "1/kcycle"},
		"pipeline.interval_ms":       {med("pipeline.RunInsts", 1, nil), "ms"},
		"pipeline.new_ms":            {med("pipeline.New", 1, nil), "ms"},
		"pipeline.result_ms":         {med("pipeline.result", 1, nil), "ms"},
		"simpoint.restore_ms":        {med("simpoint.NewMachine", 1, nil), "ms"},
		"simpoint.profile_ms":        {med("simpoint.Profile", 1, nil), "ms"},
		"simpoint.choose_ms":         {med("simpoint.Choose", 1, nil), "ms"},
		"simpoint.checkpoint_ms":     {med("simpoint.CaptureCheckpoints", 1, nil), "ms"},
		"simpoint.bound_misses":      {float64(acc.boundMisses), "count"},
		"workload.build_ms":          {med("workload.Program", 1, nil), "ms"},
		"api.key_us":                 {med("api.Key", 1000, nil), "us"},
		"server.submit_us.hit":       {med("server.Submit", 1000, disp("hit", "dedup")), "us"},
		"server.submit_us.miss":      {med("server.Submit", 1000, disp("miss")), "us"},
		"server.queue_wait_ms":       {ts.queueP50, "ms"},
		"server.cache.served_ratio":  {ts.servedRatio, "ratio"},
		"server.cache.dedup_on_done": {float64(ts.dedupOnDone), "count"},
		"server.cache.evictions":     {delta("server.cache.evictions"), "count"},
		"server.sampled.profile_hit_ratio": {ratio(delta("server.sampled.profile_cache_hits"),
			delta("server.sampled.profile_cache_hits")+delta("server.sampled.profile_cache_misses")), "ratio"},
		"server.sampled.steal_ratio":    {ratio(delta("server.sampled.intervals_stolen"), delta("server.sampled.intervals")), "ratio"},
		"client.submit_ms.hit":          {med("client.Submit", 1, disp("hit", "dedup")), "ms"},
		"client.submit_ms.miss":         {med("client.Submit", 1, disp("miss")), "ms"},
		"client.wait_ms":                {med("client.Wait", 1, nil), "ms"},
		"client.retries":                {delta("client.retries"), "count"},
		"cluster.forward_ms":            {med("cluster.RunRemote", 1, nil), "ms"},
		"cluster.peer_lookup_ms":        {med("client.CachedResult", 1, nil), "ms"},
		"cluster.forward_share":         {ts.remoteShare, "ratio"},
		"cluster.peer_lookup_hit_ratio": {ratio(delta("cluster.peer_cache.hits"), delta("cluster.peer_cache.lookups")), "ratio"},
		"host.steal_pct":                {untraced.stealPct, "%"},
		"host.rss_peak_mb":              {rssPeakMB(), "MB"},
		"trace.overhead_pct":            {100 * (ratio(us.jobsPerS, ts.jobsPerS) - 1), "%"},
		"trace.dropped":                 {float64(rec.Dropped()), "count"},
	}

	// Host nanoseconds per simulated cycle, by policy, over every detailed
	// simulation call of the decomposition (whole runs and intervals).
	ns, cyc := map[string]float64{}, map[string]float64{}
	for _, name := range []string{"pipeline.Run", "pipeline.RunInsts"} {
		for _, sp := range byName[name] {
			p, _ := sp.Attrs["policy"].(string)
			c, _ := sp.Attrs["cycles"].(uint64)
			ns[p] += sp.DurMS * 1e6
			cyc[p] += float64(c)
		}
	}
	for _, p := range policies() {
		m["pipeline.ns_per_cycle."+p] = metric{ratio(ns[p], cyc[p]), "ns"}
	}
	var profInsts, profMS float64
	for _, sp := range byName["simpoint.Profile"] {
		n, _ := sp.Attrs["insts"].(uint64)
		profInsts += float64(n)
		profMS += sp.DurMS
	}
	m["funcsim.minsts_per_s"] = metric{ratio(profInsts, profMS*1e3), "Minst/s"}

	// Simulated counts over the first pass of the job list (program x
	// policy): exact for a seed, since every window holds whole passes.
	pass := len(workload.Catalog()) * len(policies())
	var cycles, insts float64
	cpi := map[string]float64{}
	for _, r := range untraced.records {
		if !r.simulated || r.index >= pass {
			continue
		}
		cycles += float64(r.stats.Cycles)
		insts += float64(r.stats.Insts)
		cpi["base"] += float64(r.stats.CPI.Base)
		cpi["frontend"] += float64(r.stats.CPI.Frontend)
		cpi["serialize"] += float64(r.stats.CPI.Serialize)
		cpi["rob_pkru_full"] += float64(r.stats.CPI.PkruFull)
		cpi["memory"] += float64(r.stats.CPI.Memory)
		cpi["squash_recovery"] += float64(r.stats.CPI.SquashRecovery)
	}
	m["pipeline.cycles"] = metric{cycles, "count"}
	m["pipeline.insts"] = metric{insts, "count"}
	for _, b := range cpiBuckets {
		m["pipeline.cpi."+b] = metric{cpi[b], "count"}
	}

	selfTimes(m, spans, tw.records, replayed)
	return m, nil
}

// selfTimes accounts the through-server latency of the replayed jobs: the
// mean self time per job of each layer in the decomposition (a span's
// duration minus its child spans'), plus server.residual_ms, the
// through-server latency the direct calls do not explain — HTTP, queueing,
// event streams, contention for the host, and (negative) the parallelism
// of a sampled job's fan-out. By construction the two add up to
// through_server.job_ms.
func selfTimes(m map[string]metric, spans []otrace.SpanData, recs []record, replayed []int) {
	childMS := make(map[string]float64)
	jobTraces := make(map[string]int) // trace -> replayed job index
	for _, sp := range spans {
		if sp.ParentID != "" {
			childMS[sp.ParentID] += sp.DurMS
		}
		if sp.Name == "job" {
			i, _ := sp.Attrs["index"].(int)
			jobTraces[sp.TraceID] = i
		}
	}
	want := make(map[int]bool, len(replayed))
	for _, i := range replayed {
		want[i] = true
	}
	self := make(map[string]float64)
	rootMS := make(map[int]float64)
	for _, sp := range spans {
		i, ok := jobTraces[sp.TraceID]
		if !ok || !want[i] {
			continue
		}
		layer, _, _ := strings.Cut(sp.Name, ".")
		if sp.Name == "job" {
			layer = "bench"
			rootMS[i] = sp.DurMS
		}
		self[layer] += sp.DurMS - childMS[sp.SpanID]
	}
	var latency, residual float64
	for _, r := range recs {
		if r.simulated && want[r.index] {
			latency += r.latencyMS
			residual += r.latencyMS - rootMS[r.index]
		}
	}
	n := float64(len(replayed))
	m["through_server.job_ms"] = metric{ratio(latency, n), "ms"}
	m["server.residual_ms"] = metric{ratio(residual, n), "ms"}
	m["decompose.jobs"] = metric{n, "count"}
	fmt.Printf("# self time per replayed job (%d jobs), through-server latency %.3f ms:\n", len(replayed), ratio(latency, n))
	keys := append([]string(nil), layers...)
	sort.SliceStable(keys, func(a, b int) bool { return self[keys[a]] > self[keys[b]] })
	for _, l := range keys {
		v := ratio(self[l], n)
		m["self_ms."+l] = metric{v, "ms"}
		fmt.Printf("#   %-10s %10.3f ms  %6.1f%%\n", l, v, 100*ratio(self[l], latency))
	}
	fmt.Printf("#   %-10s %10.3f ms  %6.1f%%\n", "residual", ratio(residual, n), 100*ratio(residual, latency))
}

func writeChrome(path string, spans []otrace.SpanData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := otrace.WriteChrome(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command perfbench is the repository's benchmark: three seeded closed-loop
// workloads run in one process against the real code, every answer is
// checked, and the figures are read from outside each layer by timing
// calls into its public functions.
//
//	perfbench -workload policy-sweep|sampled-sweep|service-cluster \
//	          -seed N -seconds S -trace 0|1 [-out-dir DIR]
//
// With -trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with -trace 1 it holds the per-layer metrics,
// taken from a traced window plus a single-threaded decomposition pass, and
// the spans are written to DIR in Chrome/Perfetto format. The lines before
// it are a readable report. See README.md for what each workload and
// metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"specmpk/internal/otrace"
)

// setupRepeats is how many times a run sets up its workload; setup_s is the
// median, and the last set-up serves the timed window.
const setupRepeats = 7

// watchdog bounds a run's wall time: a wedged run exits non-zero without a
// result instead of hanging its caller.
const watchdog = 170 * time.Second

// env is one workload's set-up: servers, clients and job list.
type env interface {
	// window runs the workload closed-loop for d, tracing the calls into
	// client, server and cluster when rec is non-nil.
	window(rec *otrace.Recorder, d time.Duration) windowResult
	// counters snapshots the layer counters the per-layer metrics diff.
	counters() map[string]float64
	close()
}

var workloads = map[string]func(seed int64, t *tally) (env, error){
	"policy-sweep":    func(seed int64, t *tally) (env, error) { return setupSweep(seed, false, t) },
	"sampled-sweep":   func(seed int64, t *tally) (env, error) { return setupSweep(seed, true, t) },
	"service-cluster": func(seed int64, t *tally) (env, error) { return setupCluster(seed, t) },
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: policy-sweep, sampled-sweep or service-cluster")
	seed := flag.Int64("seed", 1, "seed every job spec is derived from")
	seconds := flag.Int("seconds", 20, "size of the timed window: the jobs the reference host completes in this many seconds")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	outDir := flag.String("out-dir", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %v; giving up\n", watchdog)
		os.Exit(3)
	})
	host := readHostInfo()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel)

	t := newTally()
	var e env
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(*seed, t); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	fmt.Printf("# setup_s runs=%v\n", roundAll(setups))

	// A traced run splits its time into an untraced and a traced window of
	// equal length (their difference is the tracing overhead), then
	// decomposes for up to as long again.
	window := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		window /= 2
	}
	w := e.window(nil, window)
	heap := heapLiveMB()
	s := summarize(w)
	fmt.Printf("# window %.3fs: %d requests (%d simulated, %d resubmitted), steal %.2f%%\n",
		w.elapsed.Seconds(), len(w.records), s.simulated, s.hits, w.stealPct)

	endToEnd := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"jobs_per_s":   {s.jobsPerS, "1/s"},
		"job_p50_ms":   {s.jobP50, "ms"},
		"job_p90_ms":   {s.jobP90, "ms"},
		"heap_live_mb": {heap, "MB"},
	}
	// Figures that hold on one workload only: reported beside the
	// end-to-end metrics and again among the per-layer ones.
	extra := map[string]metric{}
	if s.hits > 0 {
		extra["hit_p50_ms"] = metric{s.hitP50, "ms"}
		extra["hit_p90_ms"] = metric{s.hitP90, "ms"}
	}
	var acc accuracy
	if sw, ok := e.(*sweepEnv); ok {
		if sw.g.sampled {
			var err error
			if acc, err = sw.sampledAccuracy(w.records); err != nil {
				t.fail("reference", err)
			}
			extra["sampled_cpi_err_pct"] = metric{acc.meanErrPct, "%"}
			fmt.Printf("# sampled accuracy: %d cells, mean |CPI error| %.3f%%, %d outside their bound\n",
				acc.cells, acc.meanErrPct, acc.boundMisses)
		} else {
			groups := sw.groups.check(t, len(sw.g.policies))
			fmt.Printf("# policy groups checked for equal retired instructions: %d\n", groups)
		}
	}
	printMetrics("end-to-end", endToEnd)
	printMetrics("workload-specific", extra)

	metrics := endToEnd
	if *traced == 1 {
		layers, err := traceRun(e, w, s, window, t, acc, filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		for k, unit := range map[string]string{"hit_p50_ms": "ms", "hit_p90_ms": "ms", "sampled_cpi_err_pct": "%"} {
			layers[k] = metric{extra[k].Value, unit} // zero where the workload has none
		}
		printMetrics("per-layer", layers)
		metrics = layers
	}

	attempted, failed := t.counts()
	fmt.Printf("# answers: %d attempted, %d failed (%s)\n", attempted, failed, t.summary())
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}
	b, err := json.Marshal(output{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-10s %-36s %14.6g %s\n", title, n, ms[n].Value, ms[n].Unit)
	}
}

func roundAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

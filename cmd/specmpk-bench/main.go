// Command specmpk-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	specmpk-bench [-workloads a,b,c] [-j N] <experiment>...
//	specmpk-bench -remote host:8351 stats fig9 ...
//
// The experiments are experiments.Experiments (the usage text lists them),
// plus all. Each prints the same rows/series the paper reports, plus the
// paper's quoted aggregate for comparison, or with -json its rows.
//
// Every pipeline simulation runs as a job. By default the jobs go to an
// in-process specmpkd server whose pool has GOMAXPROCS workers; -j bounds
// how many are in flight. Its content-addressed store answers a spec that
// an earlier experiment of the same invocation already ran (e.g. the
// serialized baseline shared by fig3/fig9/fig11). With -remote the same
// jobs go to a specmpkd daemon instead, and the output is byte-identical.
// Experiments that need more than a job result — fig10 (functional
// simulation), fig13 (attack PoC), profile/diff — always run in-process.
//
// A comma-separated -remote list enables cluster mode: the bench becomes a
// coordinator (internal/cluster) that consistent-hashes each spec onto the
// daemon owning it (whose result store answers any spec it already ran),
// hedges placements slower than -hedge-after, fails over dead peers via
// content-addressed resubmission, and — when every peer is down — degrades
// jobs to the in-process server. The sampled experiment's jobs get the same
// placement, hedging and failover. A one-line cluster summary (forwards,
// cache hits, hedges, failovers) lands on stderr after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/experiments"
	"specmpk/internal/perf"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/client"
)

func main() { os.Exit(realMain()) }

// realMain carries main's body so deferred cleanup (profile finalization)
// runs before the process exits.
func realMain() int {
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	modes := flag.String("modes", "", "comma-separated policy subset for mode sweeps (default: all registered: "+strings.Join(pipeline.PolicyNames(), ",")+")")
	jobs := flag.Int("j", 0, fmt.Sprintf("simulation jobs in flight (default: GOMAXPROCS, %d here; the in-process server runs GOMAXPROCS at once)", runtime.GOMAXPROCS(0)))
	remote := flag.String("remote", "", "run the simulation jobs on specmpkd daemon(s) at these comma-separated addresses instead of in-process; more than one enables consistent-hash cluster placement")
	hedgeAfter := flag.Duration("hedge-after", 500*time.Millisecond, "cluster mode: latency budget before a lagging peer is hedged to the next replica (<0 disables)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON rows instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to `file`")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		return 2
	}
	stopProfiles, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specmpk-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "specmpk-bench: profile: %v\n", err)
		}
	}()
	r := experiments.Runner{Parallelism: *jobs}
	if *workloads != "" {
		r.Workloads = strings.Split(*workloads, ",")
	}
	if *remote != "" {
		var addrs []string
		for _, a := range strings.Split(*remote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		switch len(addrs) {
		case 0:
			fmt.Fprintln(os.Stderr, "specmpk-bench: -remote: no addresses")
			return 2
		case 1:
			r.Jobs = client.New(addrs[0]).Run
		default:
			// Cluster mode: the bench process itself is the coordinator
			// (Self is empty — every key is remote), placing each spec on
			// the peer owning it, with hedging and failover; a full-cluster
			// outage degrades jobs to the in-process server via
			// ClusterJobs.
			co, err := cluster.New(cluster.Options{Peers: addrs, HedgeAfter: *hedgeAfter})
			if err != nil {
				fmt.Fprintf(os.Stderr, "specmpk-bench: -remote: %v\n", err)
				return 2
			}
			co.Start()
			defer func() {
				co.Close()
				fmt.Fprintf(os.Stderr, "specmpk-bench: cluster: %s\n", co.Summary())
			}()
			r.Jobs = experiments.ClusterJobs(co)
		}
	}
	if *modes != "" {
		for _, name := range strings.Split(*modes, ",") {
			m, err := pipeline.ParseMode(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "specmpk-bench: %v\n", err)
				return 2
			}
			r.Modes = append(r.Modes, m)
		}
	}
	for _, name := range flag.Args() {
		if err := run(r, name, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "specmpk-bench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// run runs one named experiment, or every one but diff for "all", printing
// each as text or, with asJSON, as JSON rows.
func run(r experiments.Runner, name string, asJSON bool) error {
	var exps []experiments.Experiment
	if name == "all" {
		for _, e := range experiments.Experiments {
			if e.Name != "diff" {
				exps = append(exps, e)
			}
		}
	} else if e, ok := experiments.Lookup(name); ok {
		exps = []experiments.Experiment{e}
	} else {
		return fmt.Errorf("unknown experiment %q", name)
	}
	for _, e := range exps {
		rows, text, err := e.Run(r)
		if err != nil {
			return err
		}
		if asJSON {
			if err := experiments.WriteJSON(os.Stdout, e.Name, rows); err != nil {
				return err
			}
			continue
		}
		fmt.Print(text)
		if name == "all" {
			fmt.Println()
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: specmpk-bench [flags] <experiment>...\n\nexperiments:\n")
	for _, e := range experiments.Experiments {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Help)
	}
	fmt.Fprintf(os.Stderr, "  %-8s every experiment above but diff\n\nflags:\n", "all")
	flag.PrintDefaults()
}

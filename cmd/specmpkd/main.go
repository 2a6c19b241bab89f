// Command specmpkd serves the simulator as a daemon: jobs are submitted as
// JSON specs over HTTP, queued into a bounded queue, run on a worker pool,
// and answered from a content-addressed result cache when an identical spec
// (same workload/variant/mode/config/budget under the same simulator
// version) has already been simulated.
//
// Usage:
//
//	specmpkd [-addr :8351] [-j N] [-queue 256] [-cache 512] [-profile-cache 64]
//	         [-event-interval 1000000] [-max-cycles 500000000]
//	         [-max-wall-ms 0] [-drain-timeout 2m] [-faults plan.json] [-pprof]
//	         [-span-buf 4096] [-log-level info] [-log-format text]
//	         [-peers http://a:8351,http://b:8351 -self http://a:8351 | -coordinator]
//	         [-hedge-after 500ms] [-probe-interval 1s]
//
// Jobs default to full fidelity; a spec with "fidelity": "sampled" runs the
// SimPoint path instead — profile once (cached by profile key, sized by
// -profile-cache), simulate the representative intervals in parallel across
// the worker pool, and answer with an extrapolated result carrying an error
// bound.
//
// API (see internal/server):
//
//	POST   /v1/jobs             submit a job spec
//	GET    /v1/jobs/{id}        job status (+ result when done)
//	GET    /v1/jobs/{id}/events NDJSON progress stream (final line carries the job)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/metrics          Prometheus metrics (server.* namespace)
//	GET    /v1/healthz          liveness + uptime/version/worker-pool JSON
//	GET    /v1/debug/spans      span flight recorder (?trace= ?job= ?format=chrome)
//
// Observability: every request is traced end to end. Clients propagate a
// W3C traceparent header (or the daemon mints a fresh root), each job leaves
// one span per lifecycle stage — job, cache.lookup, queue.wait, dedup.wait,
// simulate, marshal — in a bounded in-memory flight recorder sized by
// -span-buf (0 disables tracing entirely), and GET /v1/debug/spans dumps it,
// filterable by trace or job ID, or as Chrome trace-event JSON
// (?format=chrome) loadable in Perfetto. Logs are structured (log/slog):
// -log-level picks the threshold (debug|info|warn|error), -log-format picks
// text or json; job-scoped lines carry trace_id and job_id.
//
// With -pprof the daemon additionally serves the standard net/http/pprof
// endpoints under /debug/pprof/ (profile, heap, goroutine, trace, ...) for
// live self-profiling. They expose internals — keep them off any instance a
// stranger can reach.
//
// SIGTERM/SIGINT drain gracefully: new submits are rejected with 503 while
// queued and running jobs finish, bounded by -drain-timeout; on expiry the
// stragglers are cancelled through their contexts.
//
// -max-wall-ms bounds each job's wall-clock execution (0 = unlimited);
// a job that exhausts it fails with a "deadline:" error and is never cached.
//
// -faults arms a fault-injection plan (internal/faults) for staging chaos
// drills: injected errors/panics/latency/drops fire at the registered
// service seams. Never arm faults on a production instance.
//
// -peers enables cluster mode (internal/cluster): normalized job keys are
// consistent-hashed across the listed daemons, each node simulates the keys
// it owns (-self names this node's entry; -coordinator owns none and
// forwards everything) and answers repeats from its content-addressed
// result store, placements exceeding -hedge-after are hedged to the next
// replica, dead peers (tracked via /v1/healthz at -probe-interval) are
// failed over with content-addressed resubmission, and when every peer is
// down the node degrades to local-only simulation. GET /v1/cache/{key}
// serves a resident result read-only; cluster.* metrics join /v1/metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/faults"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
)

// clusterForwarder adapts a cluster.Coordinator onto the server's Forwarder
// seam, translating the coordinator's vocabulary (RemoteResult, ErrNoPeers)
// into the server's (ForwardOutcome, ErrDegradeLocal) so neither package
// imports the other.
type clusterForwarder struct{ co *cluster.Coordinator }

func (f clusterForwarder) Remote(key string) bool { return f.co.Remote(key) }

func (f clusterForwarder) RunRemote(ctx context.Context, key string, spec api.JobSpec) (server.ForwardOutcome, error) {
	rr, err := f.co.RunRemote(ctx, key, spec)
	if err != nil {
		if errors.Is(err, cluster.ErrNoPeers) {
			return server.ForwardOutcome{}, fmt.Errorf("%w: %v", server.ErrDegradeLocal, err)
		}
		return server.ForwardOutcome{}, err
	}
	return server.ForwardOutcome{
		Result:       rr.Raw,
		StopReason:   rr.StopReason,
		Cycles:       rr.Cycles,
		Insts:        rr.Insts,
		Peer:         rr.Peer,
		PeerCacheHit: rr.PeerCacheHit,
	}, nil
}

// buildLogger constructs the daemon's structured logger from the -log-level
// and -log-format flags (stderr, like the log package it replaces).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8351", "listen address")
		workers   = flag.Int("j", 0, "worker-pool size: simulations at once (0 = GOMAXPROCS); forwards to peers hold none")
		queue     = flag.Int("queue", 256, "bounded queue size, and bound on forwards in flight; beyond either submits get 503")
		cache     = flag.Int("cache", 512, "result-cache entries (negative disables caching)")
		profCache = flag.Int("profile-cache", 64, "sampled-job profile-cache entries (plans; negative disables)")
		interval  = flag.Uint64("event-interval", 1_000_000, "progress-event cadence in simulated cycles")
		maxCyc    = flag.Uint64("max-cycles", 500_000_000, "default per-job cycle budget (job timeout)")
		maxWall   = flag.Uint64("max-wall-ms", 0, "default per-job wall-clock budget in ms (0 = unlimited); exceeding it fails the job")
		drain     = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for in-flight jobs")
		faultsAt  = flag.String("faults", "", "arm a fault-injection plan from this JSON file (staging/chaos drills only)")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (self-profiling; do not expose publicly)")
		spanBuf   = flag.Int("span-buf", 4096, "span flight-recorder capacity (completed spans kept for /v1/debug/spans; 0 disables tracing)")
		logLevel  = flag.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log encoding: text|json")

		peers       = flag.String("peers", "", "comma-separated cluster peer base URLs; enables consistent-hash job placement")
		self        = flag.String("self", "", "this node's own entry in -peers (keys it owns simulate locally)")
		coordinator = flag.Bool("coordinator", false, "pure-coordinator mode: own no keys, forward every job to -peers (ignores -self)")
		hedgeAfter  = flag.Duration("hedge-after", 500*time.Millisecond, "latency budget before hedging a forwarded job to the next replica (<0 disables)")
		probeIvl    = flag.Duration("probe-interval", time.Second, "peer health-probe cadence (<0 disables the background prober)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specmpkd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *faultsAt != "" {
		plan, err := faults.LoadFile(*faultsAt)
		if err != nil {
			logger.Error("fault plan load failed", "path", *faultsAt, "err", err)
			os.Exit(1)
		}
		if err := faults.Arm(plan); err != nil {
			logger.Error("fault plan arm failed", "path", *faultsAt, "err", err)
			os.Exit(1)
		}
		logger.Warn("FAULT INJECTION ARMED — not for production",
			"path", *faultsAt, "rules", len(plan.Rules), "seed", plan.Seed)
	}

	s := server.New(server.Options{
		Workers:             *workers,
		QueueSize:           *queue,
		CacheEntries:        *cache,
		ProfileCacheEntries: *profCache,
		EventInterval:       *interval,
		MaxCycles:           *maxCyc,
		MaxWallMS:           *maxWall,
		SpanBuffer:          *spanBuf,
		Logger:              logger,
	})

	// Cluster mode: a coordinator consistent-hashes job keys across -peers
	// and hedges slow placements; the daemon simulates only the keys it owns
	// (or everything, when no healthy peer can take a forwarded job — the
	// degradation ladder's bottom rung).
	var co *cluster.Coordinator
	if *peers != "" {
		selfAddr := *self
		if *coordinator {
			selfAddr = ""
		} else if selfAddr == "" {
			logger.Error("-peers requires -self (this node's entry in the list) or -coordinator")
			os.Exit(2)
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		co, err = cluster.New(cluster.Options{
			Peers:         peerList,
			Self:          selfAddr,
			HedgeAfter:    *hedgeAfter,
			ProbeInterval: *probeIvl,
			Recorder:      s.SpanRecorder(),
			Logger:        logger,
		})
		if err != nil {
			logger.Error("cluster setup failed", "err", err)
			os.Exit(2)
		}
		co.RegisterMetrics(s.Registry())
		s.SetForwarder(clusterForwarder{co})
		co.Start()
		logger.Info("cluster placement enabled",
			"peers", len(peerList), "self", selfAddr, "coordinator", *coordinator,
			"hedge_after", hedgeAfter.String(), "probe_interval", probeIvl.String())
	}

	// The job API is the default handler; -pprof mounts the standard profiling
	// endpoints in front of it on an explicit mux (not DefaultServeMux, so
	// nothing else can sneak routes onto the daemon).
	var handler http.Handler = s
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", s)
		handler = mux
		logger.Info("pprof self-profiling enabled", "path", "/debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler: handler,
		// Bound the request-ingestion side so a slowloris peer cannot pin
		// connections open forever (and hang graceful shutdown with them).
		// WriteTimeout deliberately stays zero: /v1/jobs/{id}/events streams
		// for the whole simulation.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"span_buf", *spanBuf, "log_level", *logLevel, "log_format", *logFormat)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case got := <-sig:
		logger.Info("draining", "signal", got.String(), "timeout", drain.String())
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the health prober first (no probes against peers that are also
	// draining), then drain the job pool (completing in-flight work), then
	// close the HTTP side; status/event requests keep working while jobs
	// finish.
	if co != nil {
		co.Close()
	}
	if err := s.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete, stragglers cancelled", "err", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("drained, exiting")
}

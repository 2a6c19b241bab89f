package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
)

// jobAttempts bounds how many times one job is re-run when it keeps
// failing transiently. A daemon client's Run already carries its own
// backoff/retry budget (and its daemon-restart resubmission), so this outer
// loop only matters for prolonged outages; a sweep then loses exactly the
// rows whose jobs outlived every layer of retries, reported per row by
// sweep's joined error, instead of aborting wholesale on the first wobble.
const jobAttempts = 3

// localServer is the in-process server that runs the jobs of a Runner
// without Jobs, started on first use and kept for the life of the process.
var localServer = sync.OnceValue(func() *server.Server { return server.New(server.Options{}) })

// ClusterJobs runs jobs on a cluster through its coordinator: each spec is
// placed on the peer owning its content-addressed key (whose result store
// answers any key it already ran), with the coordinator's hedging and
// failover in front. When every peer is down (cluster.ErrNoPeers) the job
// runs on the in-process server instead — the degrade ladder's bottom rung,
// so a sweep survives a full cluster outage, just slower.
func ClusterJobs(co *cluster.Coordinator) func(context.Context, api.JobSpec) (api.Result, api.JobInfo, error) {
	return func(ctx context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
		res, rr, err := co.Run(ctx, spec)
		if errors.Is(err, cluster.ErrNoPeers) {
			return localServer().Run(ctx, spec)
		}
		return res, api.JobInfo{Cached: rr.PeerCacheHit, WallMS: rr.WallMS}, err
	}
}

// run runs one job through the runner's seam, and is the one place of the
// sweep's failure taxonomy. Transient failures (a daemon overloaded or
// restarting) are retried, up to jobAttempts runs. Terminal job failures —
// a wall-clock deadline, a panicking simulation — and rejected specs are
// returned at once, since re-running a deterministic spec reproduces them.
// A full-fidelity result that did not halt is an error: every experiment
// compares whole-program runs.
func (r Runner) run(spec api.JobSpec) (api.Result, api.JobInfo, error) {
	jobs := r.Jobs
	if jobs == nil {
		jobs = localServer().Run
	}
	name := spec.Workload + "/" + spec.Variant + "/" + spec.Mode
	if spec.Fidelity == api.FidelitySampled {
		name += " sampled"
	}
	for attempt := 1; ; attempt++ {
		res, info, err := jobs(context.Background(), spec)
		switch {
		case err == nil && spec.Fidelity != api.FidelitySampled && res.StopReason != string(pipeline.StopHalt):
			return api.Result{}, info, fmt.Errorf("%s: run stopped with %q", name, res.StopReason)
		case err == nil:
			return res, info, nil
		case !client.IsTransient(err):
			return api.Result{}, info, fmt.Errorf("%s: %w", name, err)
		case attempt == jobAttempts:
			return api.Result{}, info, fmt.Errorf("%s: job kept failing transiently: %w", name, err)
		}
	}
}

// ran is one job of a sweep after it ran: its result and the job's info.
type ran struct {
	api.Result
	info api.JobInfo
}

// sweep runs an experiment's jobs, and is the one place that schedules
// them: row(i) lists row i's jobs, for i in [0, n). Rows run in parallel, at
// most Parallelism at a time, and a row's jobs run in order, so Parallelism
// bounds the jobs in flight and a row's later jobs find what its earlier
// ones left in the server's stores (a sampled plan). A row stops at its
// first failed job, and the error joins every failed row's. On success
// out[i][j] is row i's job j.
func (r Runner) sweep(n int, row func(i int) []api.JobSpec) ([][]ran, error) {
	out := make([][]ran, n)
	err := forEach(r.workers(), n, func(i int) error {
		for _, spec := range row(i) {
			res, info, err := r.run(spec)
			if err != nil {
				return err
			}
			out[i] = append(out[i], ran{res, info})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

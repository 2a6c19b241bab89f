package experiments

import (
	"context"
	"errors"
	"fmt"

	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/workload"
)

// remoteJobAttempts bounds how many times one job is re-run when it keeps
// failing transiently. Each attempt already carries the client's own
// backoff/retry budget (and its daemon-restart resubmission), so this outer
// loop only matters for prolonged outages; a sweep then loses exactly the
// jobs that outlived every layer of retries, reported per job by forEach's
// joined error, instead of aborting wholesale on the first wobble.
const remoteJobAttempts = 3

// RemoteSim adapts a specmpkd client into the SimFunc seam: one simulation
// request becomes one daemon job. The daemon dedups identical in-flight
// specs and serves repeats from its result cache, so a sweep whose
// experiments share baselines costs each unique spec exactly once.
func RemoteSim(c *client.Client) SimFunc { return remoteSim(c.Run) }

// ClusterSim adapts a cluster coordinator into the SimFunc seam: each
// simulation request is consistent-hash placed on the peer owning its
// content-addressed key (whose result store answers any key it already
// ran), with the coordinator's hedging and failover in front.
func ClusterSim(co *cluster.Coordinator) SimFunc { return remoteSim(co.Run) }

// remoteSim is the one body behind RemoteSim and ClusterSim, given the run
// call of a client or a coordinator.
//
// Failure taxonomy: transient errors (daemon overloaded or restarting) are
// retried per job; terminal job failures — bad specs, wall-clock deadline
// exceeded, a panicking simulation — are not, because re-running the same
// deterministic spec reproduces them. When every cluster peer is down the
// coordinator reports cluster.ErrNoPeers and the job falls to the bottom
// rung of the degradation ladder — in-process local simulation — so a sweep
// survives a full cluster outage, just slower. A single-daemon client never
// reports ErrNoPeers.
func remoteSim[T any](run func(context.Context, api.JobSpec) (api.Result, T, error)) SimFunc {
	return func(p workload.Profile, v workload.Variant, cfg pipeline.Config) (SimResult, error) {
		spec := api.SpecFor(p.Name, v, cfg)
		var lastErr error
		for attempt := 0; attempt < remoteJobAttempts; attempt++ {
			res, _, err := run(context.Background(), spec)
			if err != nil {
				if errors.Is(err, cluster.ErrNoPeers) {
					return LocalSim(p, v, cfg)
				}
				if client.IsTransient(err) {
					lastErr = err
					continue
				}
				return SimResult{}, fmt.Errorf("%s/%v/%v: %w", p.Name, v, cfg.Mode, err)
			}
			// Local runs treat a budget-bounded (non-halting) workload as an
			// error; mirror that so remote sweeps fail the same way.
			if res.StopReason != string(pipeline.StopHalt) {
				return SimResult{}, fmt.Errorf("%s/%v/%v: remote run stopped with %q",
					p.Name, v, cfg.Mode, res.StopReason)
			}
			return SimResult{Stats: res.Stats, Metrics: res.Metrics}, nil
		}
		return SimResult{}, fmt.Errorf("%s/%v/%v: job kept failing transiently: %w",
			p.Name, v, cfg.Mode, lastErr)
	}
}

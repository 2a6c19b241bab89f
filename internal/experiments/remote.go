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
//
// Failure taxonomy: transient errors (daemon overloaded or restarting) are
// retried per job; terminal job failures — bad specs, wall-clock deadline
// exceeded, a panicking simulation — are not, because re-running the same
// deterministic spec reproduces them.
func RemoteSim(c *client.Client) SimFunc {
	return func(p workload.Profile, v workload.Variant, cfg pipeline.Config) (SimResult, error) {
		spec := api.SpecFor(p.Name, v, cfg)
		var lastErr error
		for attempt := 0; attempt < remoteJobAttempts; attempt++ {
			res, _, err := c.Run(context.Background(), spec)
			if err != nil {
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

// ClusterSim adapts a cluster coordinator into the SimFunc seam: each
// simulation request is consistent-hash placed on the peer owning its
// content-addressed key (whose result store answers any key it already
// ran), with the coordinator's hedging and failover in front. When every
// peer is down the coordinator reports ErrNoPeers and the job falls to the
// bottom rung of the degradation ladder — in-process local simulation — so
// a sweep survives a full cluster outage, just slower.
func ClusterSim(co *cluster.Coordinator) SimFunc {
	local := LocalSim
	return func(p workload.Profile, v workload.Variant, cfg pipeline.Config) (SimResult, error) {
		spec := api.SpecFor(p.Name, v, cfg)
		var lastErr error
		for attempt := 0; attempt < remoteJobAttempts; attempt++ {
			res, _, err := co.Run(context.Background(), spec)
			if err != nil {
				if errors.Is(err, cluster.ErrNoPeers) {
					return local(p, v, cfg)
				}
				if client.IsTransient(err) {
					lastErr = err
					continue
				}
				return SimResult{}, fmt.Errorf("%s/%v/%v: %w", p.Name, v, cfg.Mode, err)
			}
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

// SimPoint example: the paper's simulation methodology (§VII) end to end,
// on the checkpointed plan API the simulation service uses — profile a
// workload into basic-block-vector intervals, cluster them with k-means,
// capture a restorable checkpoint at each representative interval, warm-start
// a detailed machine from every checkpoint, and recombine the weighted CPI
// into a whole-program estimate with an error bound, compared against full
// detailed simulation.
//
//	go run ./examples/simpoint
package main

import (
	"context"
	"fmt"
	"log"

	"specmpk/internal/pipeline"
	"specmpk/internal/simpoint"
	"specmpk/internal/workload"
)

func main() {
	p, _ := workload.ByName("541.leela_r")
	prog, err := p.Build(workload.VariantFull)
	if err != nil {
		log.Fatal(err)
	}

	// One profiling pass: BBV intervals, k-means clustering, and a checkpoint
	// at each representative. The plan is config-independent — the same plan
	// (this is what specmpkd caches by profile key) warm-starts a machine for
	// every policy in a sweep.
	spCfg := simpoint.Config{IntervalLen: 10_000, MaxInsts: 1_000_000, K: 5, Seed: 1}
	plan, err := simpoint.BuildPlan(prog, spCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d intervals of %d instructions; chose %d simulation points:\n",
		plan.Intervals, spCfg.IntervalLen, len(plan.Points))
	for i, pt := range plan.Points {
		cp := plan.Checkpoints[i]
		pageB, warmB := cp.EncodedBytes()
		fmt.Printf("  interval %3d  weight %.2f  checkpoint: %d dirty pages (%d B), %d warm records (%d B)\n",
			pt.Interval.Index, pt.Weight, cp.DirtyPages(), pageB, cp.WarmRecords(), warmB)
	}

	// Detailed simulation of just the representatives: each point restores
	// its checkpoint into a fresh machine (registers, PKRU, touched-memory
	// delta, RAS + warm-up replay) and runs one interval.
	mcfg := pipeline.DefaultConfig()
	stats := make([]pipeline.Stats, len(plan.Points))
	for i := range plan.Points {
		if stats[i], err = plan.SimulatePoint(context.Background(), i, mcfg, prog); err != nil {
			log.Fatal(err)
		}
	}
	est, err := plan.Estimate(stats)
	if err != nil {
		log.Fatal(err)
	}

	full, err := pipeline.New(mcfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := full.Run(200_000_000); err != nil {
		log.Fatal(err)
	}
	fullCPI := float64(full.Stats.Cycles) / float64(full.Stats.Insts)

	fmt.Printf("\nsampled CPI estimate:  %.3f ± %.0f%% (IPC %.3f)\n",
		est.CPI, 100*est.ErrorBound, est.IPC)
	fmt.Printf("full-simulation CPI:   %.3f (IPC %.3f)\n", fullCPI, full.Stats.IPC())
	fmt.Printf("measured error:        %+.1f%%\n", 100*(est.CPI-fullCPI)/fullCPI)
	fmt.Println("\n(The paper profiles the first 100 G instructions at 100 M-instruction")
	fmt.Println("granularity and simulates the top five intervals; this is the same")
	fmt.Println("pipeline at laptop scale. specmpkd runs it as a service: submit a job")
	fmt.Println(`with "fidelity": "sampled" and the daemon profiles once, fans the`)
	fmt.Println("intervals across its worker pool, and answers with this estimate.)")
}

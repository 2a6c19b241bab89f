package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/simpoint"
)

// FuzzJobSpecKey decodes arbitrary JSON the way the daemon's submit handler
// does and checks the content-addressing invariants the result store relies
// on: Normalize and Key never panic, Normalize is idempotent (a cluster
// owner re-normalizes the already-normalized spec a coordinator forwards),
// and a spec keys exactly like its normal form. It then builds what a worker
// builds from an admitted spec (the program, the machine, and for a sampled
// job the SimPoint plan under a 2^14-instruction profile) and steps the
// machine, so an admitted spec that would crash a worker or make it allocate
// without bound fails here.
func FuzzJobSpecKey(f *testing.F) {
	cfg := pipeline.DefaultConfig()
	cfg.ROBPkruSize = 4
	for _, spec := range []JobSpec{
		{Workload: "548.exchange2_r"},
		{Workload: "548.exchange2_r", Variant: "nop", Mode: "serialized", Seed: 3, MaxCycles: 5000},
		{Workload: "557.xz_r", Config: &cfg, MaxWallMS: 10},
		{Asm: "main:\n    movi t0, 3\n    halt\n", Mode: "specmpk"},
		{Workload: "548.exchange2_r", Fidelity: FidelitySampled, Sampled: &SampledParams{IntervalLen: 2000, K: 2}},
		{Asm: hugeRegionAsm},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"asm":"main:\n    halt\n","variant":"full"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normal form rejected: %v\ninput: %s", err, data)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("Normalize is not idempotent\ninput: %s\nonce:  %+v\ntwice: %+v", data, norm, again)
		}
		k1, err := spec.Key()
		if err != nil {
			t.Fatalf("Key failed on a spec that normalizes: %v\ninput: %s", err, data)
		}
		k2, err := norm.Key()
		if err != nil {
			t.Fatalf("Key failed on a normal form: %v\ninput: %s", err, data)
		}
		if k1 != k2 {
			t.Fatalf("Key(spec) %s != Key(Normalize(spec)) %s\ninput: %s", k1, k2, data)
		}

		prog, err := norm.Program()
		if err != nil {
			t.Fatalf("admitted spec's program does not build: %v\ninput: %s", err, data)
		}
		cfg, err := norm.MachineConfig()
		if err != nil {
			t.Fatalf("admitted spec's config does not resolve: %v\ninput: %s", err, data)
		}
		// Loading may still refuse an admitted program (an unaligned
		// region, say); a worker fails that job with the error.
		if m, err := pipeline.New(cfg, prog); err == nil {
			for i := 0; i < 1000 && !m.Halted() && m.Fault() == nil; i++ {
				m.Step()
			}
		}
		if norm.Sampled != nil {
			sc := norm.Sampled.SimPointConfig()
			sc.MaxInsts = min(sc.MaxInsts, 1<<14)
			_, _ = simpoint.BuildPlan(prog, sc) // an error is the job's result
		}
	})
}

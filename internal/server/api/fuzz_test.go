package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"specmpk/internal/pipeline"
)

// FuzzJobSpecKey decodes arbitrary JSON the way the daemon's submit handler
// does and checks the content-addressing invariants the result store relies
// on: Normalize and Key never panic, Normalize is idempotent (a cluster
// owner re-normalizes the already-normalized spec a coordinator forwards),
// and a spec keys exactly like its normal form.
func FuzzJobSpecKey(f *testing.F) {
	cfg := pipeline.DefaultConfig()
	cfg.ROBPkruSize = 4
	for _, spec := range []JobSpec{
		{Workload: "548.exchange2_r"},
		{Workload: "548.exchange2_r", Variant: "nop", Mode: "serialized", Seed: 3, MaxCycles: 5000},
		{Workload: "557.xz_r", Config: &cfg, MaxWallMS: 10},
		{Asm: "main:\n    movi t0, 3\n    halt\n", Mode: "specmpk"},
		{Workload: "548.exchange2_r", Fidelity: FidelitySampled, Sampled: &SampledParams{IntervalLen: 2000, K: 2, Audit: true}},
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
	})
}

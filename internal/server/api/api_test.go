package api

import (
	"encoding/json"
	"strings"
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

func TestKeyStableAcrossSpelledOutDefaults(t *testing.T) {
	implicit := JobSpec{Workload: "548.exchange2_r"}
	cfg := pipeline.DefaultConfig()
	explicit := JobSpec{
		Workload: "548.exchange2_r",
		Variant:  "full",
		Mode:     pipeline.DefaultConfig().Mode.String(),
		Config:   &cfg,
	}
	k1, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaults spelled out changed the key: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
}

func TestKeySeparatesDistinctWork(t *testing.T) {
	base := JobSpec{Workload: "548.exchange2_r"}
	perturb := []JobSpec{
		{Workload: "557.xz_r"},
		{Workload: "548.exchange2_r", Variant: "nop"},
		{Workload: "548.exchange2_r", Mode: "serialized"},
		{Workload: "548.exchange2_r", Seed: 1},
		{Workload: "548.exchange2_r", MaxCycles: 5000},
	}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{k0: true}
	for _, s := range perturb {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if seen[k] {
			t.Fatalf("spec %+v collides", s)
		}
		seen[k] = true
	}
	// A config override off the default must also change the key.
	cfg := pipeline.DefaultConfig()
	cfg.ROBPkruSize = 2
	k, err := (JobSpec{Workload: "548.exchange2_r", Config: &cfg}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if seen[k] {
		t.Fatal("ROB_pkru override did not change the key")
	}
}

func TestKeyIgnoresNumericConfigMode(t *testing.T) {
	// Only the Mode name may influence the key, never the numeric Mode
	// inside Config.
	cfgA := pipeline.DefaultConfig()
	cfgA.Mode = pipeline.ModeSerialized
	cfgB := pipeline.DefaultConfig()
	cfgB.Mode = pipeline.ModeNonSecure
	kA, err := (JobSpec{Workload: "557.xz_r", Mode: "specmpk", Config: &cfgA}).Key()
	if err != nil {
		t.Fatal(err)
	}
	kB, err := (JobSpec{Workload: "557.xz_r", Mode: "specmpk", Config: &cfgB}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if kA != kB {
		t.Fatal("numeric Config.Mode leaked into the key")
	}
}

// TestKeyPinnedPerPolicy pins one literal key per policy. Cached results and
// cluster placement are addressed by these keys, so a change to mode naming,
// Normalize or the canonical Config JSON that silently orphans every cached
// result must fail here; a deliberate change bumps Version and re-pins.
func TestKeyPinnedPerPolicy(t *testing.T) {
	want := map[string]string{
		"serialized":   "f05819d27abc75851b29ac39587501a80a86101fe18bee9063f9240fcd585e1b",
		"nonsecure":    "767c770bf8195059788af877d592082ff0581ae84169b6d4a7485cd7e8b321a2",
		"specmpk":      "11d61eecf30dd5af654df1dac7cc3155ad3e5cdecf01e22bfdb711af11c7858c",
		"delayupgrade": "46ef59f26cfa9da605da217e49b55865273ccac0b75fbcd239932786032e8833",
		"noforward":    "3bb14c5e12ebd0791e3995bd461749995be18527711633fb72b85c978580b5b9",
	}
	names := pipeline.PolicyNames()
	if len(names) != len(want) {
		t.Fatalf("%d policies registered, %d keys pinned", len(names), len(want))
	}
	for _, name := range names {
		got, err := (JobSpec{Workload: "548.exchange2_r", Mode: name}).Key()
		if err != nil {
			t.Fatal(err)
		}
		if got != want[name] {
			t.Errorf("%s: key %s, pinned %s", name, got, want[name])
		}
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	bad := []JobSpec{
		{},
		{Workload: "no-such-workload"},
		{Workload: "557.xz_r", Variant: "bogus"},
		{Workload: "557.xz_r", Mode: "bogus"},
		{Workload: "557.xz_r", Asm: "main:\n halt\n"},
		{Asm: "this is not assembly"},
		{Asm: "main:\n halt\n", Variant: "full"},
	}
	for _, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) should fail", s)
		}
	}
}

func TestAsmSpecProgramAndKey(t *testing.T) {
	spec := JobSpec{Asm: "main:\n movi t0, 3\n halt\n"}
	if _, err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Insts) == 0 {
		t.Fatal("empty program")
	}
	k1, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := JobSpec{Asm: "main:\n movi t0, 4\n halt\n"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("different asm programs collide")
	}
}

func TestSpecForRoundTrip(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Mode = pipeline.ModeSerialized
	cfg.ROBPkruSize = 4
	spec := SpecFor("520.omnetpp_r", workload.VariantNop, cfg)
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Mode != "serialized" || n.Variant != "nop" {
		t.Fatalf("normalized spec %+v", n)
	}
	got, err := n.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != pipeline.ModeSerialized || got.ROBPkruSize != 4 {
		t.Fatalf("machine config %+v", got)
	}
}

func TestResultJSONDeterministic(t *testing.T) {
	res := Result{
		Key:        "k",
		Version:    Version,
		StopReason: string(pipeline.StopHalt),
		Metrics:    map[string]any{"b": 2, "a": 1, "c": 3},
	}
	b1, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("result marshaling is not deterministic")
	}
	if !strings.Contains(string(b1), `"a":1,"b":2,"c":3`) {
		t.Fatalf("metrics keys not sorted: %s", b1)
	}
}

func TestFidelityKeysSeparateSampledFromFull(t *testing.T) {
	full := JobSpec{Workload: "541.leela_r", Mode: "specmpk"}
	sampled := full
	sampled.Fidelity = FidelitySampled
	kFull, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	kSampled, err := sampled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kFull == kSampled {
		t.Fatal("sampled and full specs hash to the same key")
	}
	// Explicit "full" is the default spelled out — same key as implicit.
	explicit := full
	explicit.Fidelity = FidelityFull
	kExplicit, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kExplicit != kFull {
		t.Fatal("explicit fidelity=full changed the key")
	}
	// Explicit default sampled params are the defaults spelled out too.
	dp := DefaultSampledParams()
	spelled := sampled
	spelled.Sampled = &dp
	kSpelled, err := spelled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kSpelled != kSampled {
		t.Fatal("default sampled params spelled out changed the key")
	}
}

func TestSampledParamsPerturbTheKey(t *testing.T) {
	base := JobSpec{Workload: "541.leela_r", Fidelity: FidelitySampled}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{k0: true}
	perturb := []SampledParams{
		{IntervalLen: 10_000},
		{MaxInsts: 2_000_000},
		{K: 3},
		{Seed: 7},
		{WarmInsts: 4096},
		{Audit: true},
	}
	for _, p := range perturb {
		s := base
		p := p
		s.Sampled = &p
		k, err := s.Key()
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if seen[k] {
			t.Fatalf("sampled params %+v did not change the key", p)
		}
		seen[k] = true
	}
}

func TestProfileKeyScopes(t *testing.T) {
	base := JobSpec{Workload: "541.leela_r", Mode: "specmpk", Fidelity: FidelitySampled}
	pk, err := base.ProfileKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(pk) != 64 {
		t.Fatalf("profile key %q is not a sha256 hex digest", pk)
	}
	jk, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if pk == jk {
		t.Fatal("profile key must not collide with the job key")
	}

	// Things that do NOT change the profile: mode, machine config, budgets,
	// the audit flag.
	cfg := pipeline.DefaultConfig()
	cfg.ROBPkruSize = 2
	same := []JobSpec{
		{Workload: "541.leela_r", Mode: "serialized", Fidelity: FidelitySampled},
		{Workload: "541.leela_r", Mode: "specmpk", Fidelity: FidelitySampled, Config: &cfg},
		{Workload: "541.leela_r", Mode: "specmpk", Fidelity: FidelitySampled, MaxCycles: 12345},
		{Workload: "541.leela_r", Mode: "specmpk", Fidelity: FidelitySampled, Sampled: &SampledParams{Audit: true}},
	}
	for _, s := range same {
		k, err := s.ProfileKey()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if k != pk {
			t.Fatalf("spec %+v changed the profile key", s)
		}
	}

	// Things that DO change the profile: the program identity and the
	// profiling parameters.
	diff := []JobSpec{
		{Workload: "557.xz_r", Fidelity: FidelitySampled},
		{Workload: "541.leela_r", Variant: "nop", Fidelity: FidelitySampled},
		{Workload: "541.leela_r", Seed: 3, Fidelity: FidelitySampled},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{IntervalLen: 10_000}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{K: 2}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{Seed: 9}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{WarmInsts: 1024}},
	}
	seen := map[string]bool{pk: true}
	for _, s := range diff {
		k, err := s.ProfileKey()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if seen[k] {
			t.Fatalf("spec %+v should have changed the profile key", s)
		}
		seen[k] = true
	}

	// Full-fidelity specs have no profile.
	if _, err := (JobSpec{Workload: "541.leela_r"}).ProfileKey(); err == nil {
		t.Fatal("ProfileKey on a full-fidelity spec should fail")
	}
}

func TestNormalizeFidelity(t *testing.T) {
	n, err := (JobSpec{Workload: "541.leela_r"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Fidelity != FidelityFull || n.Sampled != nil {
		t.Fatalf("full normalization: fidelity %q sampled %+v", n.Fidelity, n.Sampled)
	}
	n, err = (JobSpec{Workload: "541.leela_r", Fidelity: FidelitySampled}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Sampled == nil {
		t.Fatal("sampled normalization materialized no params")
	}
	if *n.Sampled != DefaultSampledParams() {
		t.Fatalf("sampled defaults %+v, want %+v", *n.Sampled, DefaultSampledParams())
	}
	// Partial overrides keep the remaining defaults.
	n, err = (JobSpec{Workload: "541.leela_r", Fidelity: FidelitySampled,
		Sampled: &SampledParams{K: 3}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Sampled.K != 3 || n.Sampled.IntervalLen != DefaultSampledParams().IntervalLen {
		t.Fatalf("partial override %+v", *n.Sampled)
	}

	bad := []JobSpec{
		{Workload: "541.leela_r", Fidelity: "bogus"},
		{Workload: "541.leela_r", Sampled: &SampledParams{K: 3}},                                       // params without sampled fidelity
		{Workload: "541.leela_r", Fidelity: FidelityFull, Sampled: &SampledParams{K: 3}},               // ditto, explicit
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{IntervalLen: 10}}, // too short
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{K: -1}},           // bad k
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{MaxInsts: 5_000}}, // < one interval
		// Upper bounds: one past each, and the 2^40 warm-up log that would
		// otherwise size a fatal allocation in the profiling pass.
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{IntervalLen: MaxSampledIntervalLen + 1, MaxInsts: MaxSampledMaxInsts}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{MaxInsts: MaxSampledMaxInsts + 1}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{MaxInsts: 1 << 62}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{K: MaxSampledK + 1}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{WarmInsts: MaxSampledWarmInsts + 1}},
		{Workload: "541.leela_r", Fidelity: FidelitySampled, Sampled: &SampledParams{WarmInsts: 1 << 40}},
	}
	for _, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) should fail", s)
		}
	}
}

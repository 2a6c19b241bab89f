package attack

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/funcsim"
	"specmpk/internal/pipeline"
)

func TestGadgetRunsFunctionally(t *testing.T) {
	prog, err := BuildGadget(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Architecturally the attack path is never taken, so the run must be
	// fault-free even though array1 is access-disabled.
	if err := m.Run(1_000_000, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNonSecureLeaks(t *testing.T) {
	res, err := Run(pipeline.ModeNonSecure, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TrainingVisible() {
		t.Fatalf("training value must be hot; latency=%d", res.Latency[res.Cfg.TrainValue])
	}
	if !res.Leaked() {
		t.Fatalf("NonSecure must leak the secret; latency=%d", res.Latency[res.Cfg.SecretValue])
	}
	hot := res.HotIndices()
	if len(hot) > 8 {
		t.Fatalf("too many hot indices (noise): %v", hot)
	}
}

func TestSpecMPKBlocksLeak(t *testing.T) {
	res, err := Run(pipeline.ModeSpecMPK, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TrainingVisible() {
		t.Fatalf("training value must still be hot; latency=%d", res.Latency[res.Cfg.TrainValue])
	}
	if res.Leaked() {
		t.Fatalf("SpecMPK must not leak; latency=%d", res.Latency[res.Cfg.SecretValue])
	}
}

func TestSerializedBlocksLeak(t *testing.T) {
	res, err := Run(pipeline.ModeSerialized, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaked() {
		t.Fatalf("serialized WRPKRU must not leak; latency=%d", res.Latency[res.Cfg.SecretValue])
	}
}

func TestCustomSecretValue(t *testing.T) {
	cfg := Config{TrainValue: 10, SecretValue: 200, TrainRounds: 60}
	res, err := Run(pipeline.ModeNonSecure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaked() {
		t.Fatal("leak must follow the configured secret value")
	}
	if res.Latency[101] > 0 && res.Latency[101] < res.Threshold {
		t.Fatal("default secret index must not be hot with a custom secret")
	}
}

func TestAllEntriesMeasured(t *testing.T) {
	res, err := Run(pipeline.ModeSpecMPK, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, lat := range res.Latency {
		if lat == 0 {
			t.Fatalf("probe entry %d never measured", i)
		}
	}
}

// TestGadgetSatisfiesCompilerDiscipline: the attack works even when the
// victim obeys the paper's §IX-B load-immediate rule.
func TestGadgetSatisfiesCompilerDiscipline(t *testing.T) {
	prog, err := BuildGadget(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := asm.CheckWrpkruDiscipline(prog); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// --- Fig. 12(d): Spectre-BTI variant ---------------------------------------

func TestBTILeaksOnNonSecure(t *testing.T) {
	res, err := RunBTI(pipeline.ModeNonSecure, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TrainingVisible() {
		t.Fatal("training value must be hot")
	}
	if !res.Leaked() {
		t.Fatalf("BTI must leak on NonSecure; latency=%d", res.Latency[res.Cfg.SecretValue])
	}
}

func TestBTIBlockedBySpecMPKAndSerialized(t *testing.T) {
	for _, mode := range []pipeline.Mode{pipeline.ModeSpecMPK, pipeline.ModeSerialized} {
		res, err := RunBTI(mode, DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Leaked() {
			t.Fatalf("%v: BTI leak must be blocked; latency=%d", mode, res.Latency[res.Cfg.SecretValue])
		}
	}
}

func TestBTIGadgetSatisfiesDiscipline(t *testing.T) {
	prog, err := BuildBTIGadget(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := asm.CheckWrpkruDiscipline(prog); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// --- §III-C: speculative buffer overflow -----------------------------------

func TestOverflowForwardsOnNonSecure(t *testing.T) {
	res, err := RunOverflow(pipeline.ModeNonSecure)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CorruptLeaked {
		t.Fatal("transiently stored value must forward and leak on NonSecure")
	}
}

func TestOverflowBlockedBySpecMPKAndSerialized(t *testing.T) {
	for _, mode := range []pipeline.Mode{pipeline.ModeSpecMPK, pipeline.ModeSerialized} {
		res, err := RunOverflow(mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.CorruptLeaked {
			t.Fatalf("%v: forwarding of the corrupt value must be suppressed (lat=%d)",
				mode, res.CorruptLatency)
		}
	}
}

// --- every policy ------------------------------------------------------------

var update = flag.Bool("update", false, "rewrite testdata/gadgets.golden")

// gadgetsGolden pins every probe latency of the three gadgets under every
// policy, one line per policy and gadget, keyed by its first two fields.
const gadgetsGolden = "testdata/gadgets.golden"

// goldenKey is a golden line's first two fields, "<policy> <gadget>".
func goldenKey(line string) string {
	f := strings.SplitN(line, " ", 3)
	return strings.Join(f[:min(2, len(f))], " ")
}

// readGadgetsGolden returns the golden lines by key.
func readGadgetsGolden(t *testing.T) map[string]string {
	data, err := os.ReadFile(gadgetsGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		lines[goldenKey(line)] = line
	}
	return lines
}

// TestGadgetsUnderEveryPolicy meets every registered policy with the three
// gadgets: Fig. 13's flush+reload, Spectre-BTI (Fig. 12(d)) and the §III-C
// speculative buffer overflow. delayupgrade (Okapi) stalls the transiently
// upgraded load but still forwards the transient store; noforward is the
// reverse; SpecMPK blocks all three. Beyond the verdicts, all 256 probe
// latencies of Fig. 13 and BTI and the overflow's flag and latency must
// match testdata/gadgets.golden cycle for cycle; regenerate it with
// `go test ./internal/attack -run GadgetsUnderEveryPolicy -update` only
// when a change means to move a latency.
func TestGadgetsUnderEveryPolicy(t *testing.T) {
	want := map[pipeline.Mode]struct {
		loadLeaks     bool // Fig. 13 and BTI: the secret probe entry is hot
		overflowLeaks bool // the transiently stored value forwards
	}{
		pipeline.ModeSerialized:   {false, false},
		pipeline.ModeNonSecure:    {true, true},
		pipeline.ModeSpecMPK:      {false, false},
		pipeline.ModeDelayUpgrade: {false, true},
		pipeline.ModeNoForward:    {true, false},
	}
	var golden map[string]string
	if !*update {
		golden = readGadgetsGolden(t)
	}
	var lines []string
	pin := func(t *testing.T, line string) {
		lines = append(lines, line)
		if key := goldenKey(line); !*update && golden[key] != line {
			t.Errorf("%s drifted from %s (regenerate with -update only on purpose):\ngot:  %s\nwant: %s",
				key, gadgetsGolden, line, golden[key])
		}
	}
	for _, mode := range pipeline.RegisteredModes() {
		t.Run(mode.String(), func(t *testing.T) {
			w, ok := want[mode]
			if !ok {
				t.Fatal("no expectation for this policy")
			}
			for _, g := range []struct {
				name string
				run  func(pipeline.Mode, Config) (Result, error)
			}{{"fig13", Run}, {"bti", RunBTI}} {
				res, err := g.run(mode, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				train, secret := res.Latency[res.Cfg.TrainValue], res.Latency[res.Cfg.SecretValue]
				t.Logf("%s: training entry %d cycles, secret entry %d cycles", g.name, train, secret)
				if !res.TrainingVisible() {
					t.Errorf("%s: training value must be hot; latency=%d", g.name, train)
				}
				if res.Leaked() != w.loadLeaks {
					t.Errorf("%s: leaked = %v, want %v; latency=%d", g.name, res.Leaked(), w.loadLeaks, secret)
				}
				if hot := res.HotIndices(); len(hot) > 8 {
					t.Errorf("%s: too many hot indices (noise): %v", g.name, hot)
				}
				pin(t, fmt.Sprintf("%s %s %v", mode, g.name, res.Latency))
			}
			res, err := RunOverflow(mode)
			if err != nil {
				t.Fatal(err)
			}
			if res.CorruptLeaked != w.overflowLeaks {
				t.Errorf("overflow: leaked = %v, want %v (lat=%d)", res.CorruptLeaked, w.overflowLeaks, res.CorruptLatency)
			}
			pin(t, fmt.Sprintf("%s overflow leaked=%v latency=%d", mode, res.CorruptLeaked, res.CorruptLatency))
		})
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gadgetsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

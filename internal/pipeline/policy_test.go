package pipeline

import (
	"strings"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/mem"
	"specmpk/internal/trace"
)

func TestParseModeRoundTrip(t *testing.T) {
	names := PolicyNames()
	modes := RegisteredModes()
	if len(names) != len(modes) || len(names) < 5 {
		t.Fatalf("registry shape: %d names, %d modes", len(names), len(modes))
	}
	for i, mode := range modes {
		if mode.String() != names[i] {
			t.Fatalf("mode %d: String() = %q, PolicyNames()[%d] = %q",
				int(mode), mode.String(), i, names[i])
		}
		back, err := ParseMode(mode.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", mode.String(), err)
		}
		if back != mode {
			t.Fatalf("round trip %q: got mode %d, want %d", mode.String(), int(back), int(mode))
		}
	}
	// The builtins keep their historical values and names.
	for name, want := range map[string]Mode{
		"serialized": ModeSerialized, "nonsecure": ModeNonSecure,
		"specmpk": ModeSpecMPK, "delayupgrade": ModeDelayUpgrade,
		"noforward": ModeNoForward,
	} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Unknown names fail with an error that lists every valid name.
	_, err := ParseMode("bogus")
	if err == nil {
		t.Fatal("ParseMode must reject unknown names")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParseMode error %q does not list %q", err, name)
		}
	}
	// Building a machine with an unregistered Mode fails the same way.
	cfg := DefaultConfig()
	cfg.Mode = Mode(1000)
	if _, err := New(cfg, buildProg(t, func(b *asm.Builder) { b.Func("main").Halt() })); err == nil {
		t.Fatal("New must reject an unregistered mode")
	}
}

// transientUpgradeProg builds the DelayUpgrade litmus: the committed PKRU
// access-disables the shadow key, a cold load holds retirement back, and a
// WRPKRU re-enable plus a shadow load sit behind it — so the load is
// permitted only by the still-transient upgrade.
func transientUpgradeProg(t *testing.T) *asm.Program {
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(5, heapBase+0x800)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruDeny))
		f.Movi(9, 55)
		f.St(9, 4, 0)  // seed the shadow slot (and warm its DTLB entry)
		f.Wrpkru(27)   // committed: key 1 access-disabled
		f.Ld(24, 5, 0) // cold miss: blocks retirement for a long time
		f.Wrpkru(26)   // transient re-enable (stuck behind the cold load)
		f.Ld(10, 4, 0) // permitted only by the in-flight upgrade
		f.Halt()
	})
}

func TestDelayUpgradeStallsTransientUpgradeLoad(t *testing.T) {
	p := transientUpgradeProg(t)
	m := newMachine(t, ModeDelayUpgrade, p)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 55 {
		t.Fatalf("r10 = %d", m.ArchReg(10))
	}
	if m.Stats.LoadsStalledTillHead == 0 {
		t.Fatal("transient-upgrade load must be delayed until non-speculative")
	}
	// NonSecure runs the same load speculatively.
	m2 := newMachine(t, ModeNonSecure, p)
	if err := m2.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m2.ArchReg(10) != 55 {
		t.Fatalf("nonsecure r10 = %d", m2.ArchReg(10))
	}
	if m2.Stats.LoadsStalledTillHead != 0 {
		t.Fatalf("nonsecure should not delay loads (stalled %d)",
			m2.Stats.LoadsStalledTillHead)
	}
}

func TestDelayUpgradeBlocksTransientSecretLeak(t *testing.T) {
	// The Fig. 12c gadget: a mispredicted path transiently re-enables the
	// secret's key and loads it. DelayUpgrade must keep the secret line out
	// of the cache — the load stalls till head and the squash kills it first.
	p, secretBase := spectreGadget(t)
	m := newMachine(t, ModeDelayUpgrade, p)
	loads := trace.Loads{}
	m.Events = loads
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if len(loads[secretBase]) > 0 {
		t.Fatal("delayupgrade: transient secret access went through")
	}
}

// forwardSuppressionProg is the TestSpecMPKBlocksForwardingFromProtectedStore
// gadget: a store whose write permission is only speculatively enabled, then
// a load of the same address that would forward from it.
func forwardSuppressionProg(t *testing.T) *asm.Program {
	return buildProg(t, func(b *asm.Builder) {
		b.Region("heap", heapBase, heapSize, mem.ProtRW, 0)
		b.Region("shadow", shadowBase, shadowSize, mem.ProtRW, 1)
		f := b.Func("main")
		f.Movi(4, shadowBase)
		f.Movi(5, heapBase+0x800)
		f.Movi(26, int64(pkruOpen))
		f.Movi(27, int64(pkruProtect))
		f.Ld(25, 4, 0) // warm the shadow DTLB entry
		f.Nop()
		f.Wrpkru(27)   // committed: key 1 write-disabled
		f.Ld(24, 5, 0) // cold miss: blocks retirement
		f.Wrpkru(26)   // transient write-enable
		f.Movi(9, 77)
		f.St(9, 4, 0)  // store under transient write-enable
		f.Ld(10, 4, 0) // would forward from it
		f.Wrpkru(27)
		f.Halt()
	})
}

func TestNoForwardSuppressesForwardingOnly(t *testing.T) {
	p := forwardSuppressionProg(t)
	m := newMachine(t, ModeNoForward, p)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 77 {
		t.Fatalf("r10 = %d", m.ArchReg(10))
	}
	// The ablation keeps SpecMPK's Store Check...
	if m.Stats.StoresNoForward == 0 {
		t.Fatal("suspect store must lose forwarding")
	}
	if m.Stats.ForwardBlockedLoads == 0 {
		t.Fatal("the dependent load must be blocked from forwarding")
	}
	// ...but drops the Load Check: every head-stall is a blocked forward
	// (a store-check consequence), never a load-check delay.
	if m.Stats.LoadsStalledTillHead != m.Stats.ForwardBlockedLoads {
		t.Fatalf("noforward must not delay loads beyond blocked forwards (stalled %d, blocked %d)",
			m.Stats.LoadsStalledTillHead, m.Stats.ForwardBlockedLoads)
	}
}

func TestDelayUpgradeKeepsStoreForwarding(t *testing.T) {
	// The complementary cut: DelayUpgrade delays loads but leaves stores
	// (and store-to-load forwarding) entirely speculative.
	p := forwardSuppressionProg(t)
	m := newMachine(t, ModeDelayUpgrade, p)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.ArchReg(10) != 77 {
		t.Fatalf("r10 = %d", m.ArchReg(10))
	}
	if m.Stats.StoresNoForward != 0 {
		t.Fatalf("delayupgrade must not suppress forwarding (stores %d)",
			m.Stats.StoresNoForward)
	}
	if m.Stats.LoadsForwarded == 0 {
		t.Fatal("the dependent load should forward from the in-flight store")
	}
}

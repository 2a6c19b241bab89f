package profile

import (
	"bytes"
	"strings"
	"testing"

	"specmpk/internal/asm"
	"specmpk/internal/pipeline"
)

// litmusSrc has a known hot inner loop ("loop") and two WRPKRU sites
// toggling key 2 — a key the loop's loads (key 1) never touch, so the
// speculative machine pays nothing while the serialized machine drains at
// every site. The re-allow site sits a full loop body after the restrict,
// so by the time it executes the restriction is architectural and the
// re-allow opens a genuine transient-upgrade window each outer iteration.
const litmusSrc = `
.code 0x10000
.entry main
.region data 0x20000000 0x1000 rw 1
.initreg gp 0x20000000

main:
    movi t0, 50
    movi t2, 48          # AD|WD for key 2
    movi t3, 0           # allow-all
outer:
    wrpkru t2            # restrict key 2 (downgrade: no window)
    movi t1, 20
loop:
    clflush 0(gp)        # force a cache miss (same page: no TLB churn)
    ld t4, 0(gp)
    add t5, t5, t4
    addi t1, t1, -1
    bne t1, zero, loop
    wrpkru t3            # re-allow key 2: transient upgrade window
    addi t0, t0, -1
    bne t0, zero, outer
    halt
`

// runLitmus runs the litmus program under mode with the profiler and
// ledger attached.
func runLitmus(t *testing.T, mode pipeline.Mode) (*asm.Program, pipeline.Stats, *Profiler, *Ledger) {
	t.Helper()
	prog, err := asm.Parse(litmusSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Mode = mode
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, ledger := New(prog), NewLedger()
	m.Prof = prof
	m.Events = ledger
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("litmus did not halt")
	}
	return prog, m.Stats, prof, ledger
}

// wrpkruPCs returns the program's WRPKRU site addresses.
func wrpkruPCs(prog *asm.Program) map[uint64]bool {
	out := map[uint64]bool{}
	for i, in := range prog.Insts {
		if in.Op.Name() == "wrpkru" {
			out[prog.CodeBase+uint64(i)*16] = true
		}
	}
	return out
}

// TestProfilerInvariant pins the acceptance criterion: the per-PC CPI
// stacks sum exactly to the machine's global CPI stack, and the per-PC
// retired counts sum to the instruction count — for every registered
// policy.
func TestProfilerInvariant(t *testing.T) {
	for _, mode := range pipeline.RegisteredModes() {
		_, s, prof, _ := runLitmus(t, mode)
		if prof.Total != s.CPI {
			t.Errorf("%v: per-PC CPI stacks sum to %+v, machine says %+v", mode, prof.Total, s.CPI)
		}
		if prof.Total.Sum() != s.Cycles {
			t.Errorf("%v: attributed %d cycles, machine ran %d", mode, prof.Total.Sum(), s.Cycles)
		}
		if prof.RetiredTotal != s.Insts {
			t.Errorf("%v: profiler saw %d retirements, machine retired %d", mode, prof.RetiredTotal, s.Insts)
		}
		var rowCycles, rowRetired uint64
		for _, r := range prof.Report().Rows {
			rowCycles += r.Cycles
			rowRetired += r.Retired
			if r.CPI.Sum() != r.Cycles {
				t.Errorf("%v: row 0x%x buckets sum to %d, cycles %d", mode, r.PC, r.CPI.Sum(), r.Cycles)
			}
		}
		if rowCycles != s.Cycles || rowRetired != s.Insts {
			t.Errorf("%v: report rows sum to %d cycles/%d retired, want %d/%d",
				mode, rowCycles, rowRetired, s.Cycles, s.Insts)
		}
	}
}

// TestProfilerRanking asserts the top-PC table localizes the known
// structure: the hot loop dominates retirement, and on the serialized
// machine the serialize bucket lands on a WRPKRU site.
func TestProfilerRanking(t *testing.T) {
	prog, s, prof, _ := runLitmus(t, pipeline.ModeSerialized)
	rep := prof.Report()
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Cycles > rep.Rows[i-1].Cycles {
			t.Fatalf("rows not sorted by cycles: %d before %d", rep.Rows[i-1].Cycles, rep.Rows[i].Cycles)
		}
	}
	loop := prog.Symbols["loop"]
	var topRetired Row
	for _, r := range rep.Rows {
		if r.Retired > topRetired.Retired {
			topRetired = r
		}
	}
	if topRetired.PC < loop || topRetired.PC >= loop+5*16 {
		t.Errorf("hottest-retired PC 0x%x not in the loop [0x%x,0x%x)", topRetired.PC, loop, loop+4*16)
	}
	if s.CPI.Serialize == 0 {
		t.Fatal("serialized run attributed no serialize cycles")
	}
	sites := wrpkruPCs(prog)
	var serTop Row
	for _, r := range rep.Rows {
		if r.CPI.Serialize > serTop.CPI.Serialize {
			serTop = r
		}
	}
	if !sites[serTop.PC] {
		t.Errorf("top serialize PC 0x%x (%s) is not a WRPKRU site %v", serTop.PC, serTop.Disasm, sites)
	}
	// Every serialize cycle must land on one of the WRPKRU sites.
	var siteSer uint64
	for _, r := range rep.Rows {
		if sites[r.PC] {
			siteSer += r.CPI.Serialize
		}
	}
	if siteSer != s.CPI.Serialize {
		t.Errorf("WRPKRU sites hold %d serialize cycles, machine attributed %d", siteSer, s.CPI.Serialize)
	}
	// The basic-block rollup must name the loop as the hottest-retired block.
	var topBlock BlockRow
	for _, b := range rep.Blocks {
		if b.Retired > topBlock.Retired {
			topBlock = b
		}
	}
	if topBlock.Label != "loop" {
		t.Errorf("hottest block %q, want \"loop\" (%+v)", topBlock.Label, topBlock)
	}
}

// TestDiffRanksWrpkruSite mirrors the bench-level acceptance criterion:
// in the serialized-vs-specmpk differential, the top delta contributor is
// the injected WRPKRU site.
func TestDiffRanksWrpkruSite(t *testing.T) {
	prog, _, profSer, _ := runLitmus(t, pipeline.ModeSerialized)
	_, _, profSpec, _ := runLitmus(t, pipeline.ModeSpecMPK)
	d := Diff("serialized", profSer.Report(), "specmpk", profSpec.Report())
	if len(d.Rows) == 0 {
		t.Fatal("empty diff")
	}
	if !wrpkruPCs(prog)[d.Rows[0].PC] {
		t.Errorf("top delta PC 0x%x (%s, delta %d) is not a WRPKRU site",
			d.Rows[0].PC, d.Rows[0].Disasm, d.Rows[0].Delta)
	}
	if got := int64(d.TotalA.Sum()) - int64(d.TotalB.Sum()); got <= 0 {
		t.Errorf("serialized-specmpk cycle gap %d, want positive", got)
	}
	var tbl bytes.Buffer
	d.Table(&tbl, 5)
	if !strings.Contains(tbl.String(), "wrpkru") {
		t.Errorf("diff table lacks wrpkru disasm:\n%s", tbl.String())
	}
	if !strings.Contains(d.Histogram(5, 20), "per-PC cycle delta") {
		t.Error("histogram title missing")
	}
}

// TestLedgerUpgradeWindows asserts the audit ledger sees the transient
// windows the litmus opens: under specmpk the allow-all WRPKRU re-upgrades
// key 2 once per outer iteration; under the serialized design no window is
// ever transient.
func TestLedgerUpgradeWindows(t *testing.T) {
	_, _, _, ser := runLitmus(t, pipeline.ModeSerialized)
	if got := ser.Totals().UpgradesOpened; got != 0 {
		t.Errorf("serialized opened %d transient windows, want 0", got)
	}

	_, _, _, led := runLitmus(t, pipeline.ModeSpecMPK)
	k2 := led.Keys[2]
	if k2.UpgradesOpened == 0 {
		t.Fatal("specmpk opened no upgrade windows for key 2")
	}
	if k2.UpgradesOpened < 50 {
		t.Errorf("key 2 opened %d windows, want >= one per outer iteration (50)", k2.UpgradesOpened)
	}
	if k2.UpgradesCommitted+k2.UpgradesSquashed != k2.UpgradesOpened {
		t.Errorf("windows leak: opened %d, closed %d+%d",
			k2.UpgradesOpened, k2.UpgradesCommitted, k2.UpgradesSquashed)
	}
	if k2.UpgradeWindowCycles == 0 {
		t.Error("upgrade windows report zero open cycles")
	}
	for k := 3; k < 16; k++ {
		if led.Keys[k].UpgradesOpened != 0 {
			t.Errorf("key %d opened %d windows, litmus only toggles key 2", k, led.Keys[k].UpgradesOpened)
		}
	}
	// Rows: one row per active key, ending in the total.
	rows := led.Rows()
	if last := rows[len(rows)-1]; last.Pkey != "total" || last.KeyAudit != led.Totals() {
		t.Errorf("ledger rows end in %+v, want the total %+v", last, led.Totals())
	}
}

// TestAnnotate smoke-checks the annotated disassembly: every litmus
// instruction appears, block labels are printed, and hot lines are marked.
func TestAnnotate(t *testing.T) {
	prog, _, prof, _ := runLitmus(t, pipeline.ModeSerialized)
	var buf bytes.Buffer
	Annotate(&buf, prog, prof.Report())
	out := buf.String()
	for _, want := range []string{"main:", "loop:", "wrpkru", "ld r13, 0(r4)"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated disassembly lacks %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < len(prog.Insts) {
		t.Errorf("annotation has %d lines for %d instructions", lines, len(prog.Insts))
	}
}

// TestAliasedLabelsAnnotateDeterministically: with two labels on one
// address, Annotate prints both in sorted order and a PC under them is
// attributed to the first, the same way every time.
func TestAliasedLabelsAnnotateDeterministically(t *testing.T) {
	prog, err := asm.Parse("main:\nalias:\n  nop\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		Annotate(&buf, prog, &Report{})
		if out := buf.String(); !strings.Contains(out, "\nalias:\nmain:\n") {
			t.Fatalf("Annotate does not list both names in order:\n%s", out)
		}
		if got := funcName(prog, prog.Entry+16); got != "alias" {
			t.Fatalf("funcName = %q, want the first name, alias", got)
		}
	}
}

package experiments

import (
	"strings"
	"testing"
)

func TestVDomSweepShape(t *testing.T) {
	rows, err := VDomSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Domains != 8 || rows[0].Evictions != 0 {
		t.Fatalf("8 sessions must fit: %+v", rows[0])
	}
	if rows[1].Evictions != 0 {
		t.Fatalf("14 sessions must fit in 14 keys: %+v", rows[1])
	}
	// Past the hardware budget, evictions appear and overhead grows
	// monotonically with session count.
	last := -1.0
	for _, r := range rows[2:] {
		if r.Evictions == 0 {
			t.Fatalf("%d sessions must thrash", r.Domains)
		}
		if r.OverheadPct <= last {
			t.Fatalf("overhead must grow: %+v", rows)
		}
		last = r.OverheadPct
	}
	// The paper's reference point: low-single-digit overhead at moderate
	// oversubscription.
	if rows[2].OverheadPct < 0.5 || rows[2].OverheadPct > 15 {
		t.Fatalf("24-session overhead %.2f%% out of plausible band", rows[2].OverheadPct)
	}
	out := RenderVDom(rows)
	if len(out) == 0 {
		t.Fatal("render")
	}
}

func TestWindowSweepShape(t *testing.T) {
	rows, err := WindowSweep(Runner{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(WindowSizes) {
		t.Fatalf("%d rows", len(rows))
	}
	// The speculative benefit must grow (or at least not shrink much) with
	// window size, and SpecMPK must track NonSecure at the 1/24 ratio.
	if rows[len(rows)-1].NonSecureNorm < rows[0].NonSecureNorm-0.02 {
		t.Fatalf("benefit should not shrink with window size: %+v", rows)
	}
	for _, r := range rows {
		if r.NonSecureNorm-r.SpecMPKNorm > 0.10 {
			t.Errorf("AL=%d: SpecMPK trails NonSecure by %.3f", r.ALSize,
				r.NonSecureNorm-r.SpecMPKNorm)
		}
	}
	if out := RenderWindow("520.omnetpp_r", rows); len(out) == 0 {
		t.Fatal("render")
	}
}

func TestPKRUSafeShape(t *testing.T) {
	rows, err := PKRUSafe(Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SerializedPct < 1 {
			t.Errorf("%s: serialized overhead %.1f%% implausibly low", r.Workload, r.SerializedPct)
		}
		// SpecMPK must recover a substantial share of the serialized
		// overhead (not necessarily all of it).
		if r.SpecMPKPct > r.SerializedPct*0.8 {
			t.Errorf("%s: SpecMPK overhead %.1f%% vs serialized %.1f%% — too little recovery",
				r.Workload, r.SpecMPKPct, r.SerializedPct)
		}
	}
	if out := RenderPKRUSafe(rows); !strings.Contains(out, "11.55") {
		t.Fatal("render")
	}
}

func TestJSONRows(t *testing.T) {
	e, ok := Lookup("hwcost")
	if !ok {
		t.Fatal("hwcost missing from the experiment table")
	}
	rows, _, err := e.Run(Runner{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, e.Name, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"experiment": "hwcost"`) || !strings.Contains(out, "ROB_pkru") {
		t.Fatalf("json:\n%s", out)
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("unknown experiment found")
	}
	// A simulation-backed one on a small subset.
	e, _ = Lookup("fig10")
	rows, _, err = e.Run(Runner{Workloads: []string{"557.xz_r"}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteJSON(&buf, e.Name, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "WrpkruPerKilo") {
		t.Fatalf("fig10 json:\n%s", buf.String())
	}
}

func TestRdpkruStudy(t *testing.T) {
	rows, err := Rdpkru(Runner{Workloads: []string{"520.omnetpp_r"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	// Load-immediate SpecMPK must clearly beat RMW SpecMPK: RDPKRU
	// serialization eats the speculative benefit.
	if r.SpecMPKFull-r.SpecMPKRdpkru < 0.05 {
		t.Errorf("RMW updates should cost SpecMPK noticeably: imm=%.3f rmw=%.3f",
			r.SpecMPKFull, r.SpecMPKRdpkru)
	}
	if out := RenderRdpkru(rows); !strings.Contains(out, "V-C6") {
		t.Fatal("render")
	}
}

// TestJSONRowsAllExperiments runs every entry of the experiment table on
// one small workload: each yields JSON rows and text, and a -workloads
// subset of one reaches the window sweep.
func TestJSONRowsAllExperiments(t *testing.T) {
	small := Runner{Workloads: []string{"557.xz_r"}}
	for _, e := range Experiments {
		rows, text, err := e.Run(small)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if text == "" || e.Help == "" {
			t.Fatalf("%s: empty text or help", e.Name)
		}
		var buf strings.Builder
		if err := WriteJSON(&buf, e.Name, rows); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !strings.Contains(buf.String(), `"experiment": "`+e.Name+`"`) || strings.Contains(buf.String(), `"rows": null`) {
			t.Fatalf("%s: json:\n%s", e.Name, buf.String())
		}
		if e.Name == "window" && !strings.Contains(text, "557.xz_r") {
			t.Fatalf("window swept another workload:\n%s", text)
		}
	}
}

package experiments

import (
	"fmt"
	"strings"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// RdpkruRow quantifies §V-C6: RDPKRU is serialized in every
// microarchitecture, so protection schemes that update PKRU with glibc's
// read-modify-write pkey_set pattern (RDPKRU → mask → WRPKRU) forfeit most
// of SpecMPK's benefit — the paper's motivation for compilers to keep
// permission values in a data structure (load-immediates) instead.
// All IPCs are normalized to the serialized machine running the
// load-immediate (full) variant.
type RdpkruRow struct {
	Workload string
	// SpecMPKFull is SpecMPK with load-immediate updates (the §IX-B form).
	SpecMPKFull float64
	// SpecMPKRdpkru is SpecMPK with pkey_set-style RMW updates.
	SpecMPKRdpkru float64
	// SerializedRdpkru is the serialized machine with RMW updates.
	SerializedRdpkru float64
}

// RdpkruWorkloads is the default (dense) subset for the study.
var RdpkruWorkloads = []string{"520.omnetpp_r", "500.perlbench_r", "453.povray"}

// Rdpkru runs the §V-C6 study.
func Rdpkru(r Runner) ([]RdpkruRow, error) {
	if len(r.Workloads) == 0 {
		r.Workloads = RdpkruWorkloads
	}
	cat := r.catalog()
	runs, err := r.sweep(len(cat), func(i int) []api.JobSpec {
		return append(modeSpecs(cat[i], workload.VariantFull, pipeline.ModeSerialized, pipeline.ModeSpecMPK),
			modeSpecs(cat[i], workload.VariantRdpkru, pipeline.ModeSpecMPK, pipeline.ModeSerialized)...)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]RdpkruRow, len(cat))
	for i, run := range runs {
		base, spFull, spRMW, serRMW := run[0].Stats, run[1].Stats, run[2].Stats, run[3].Stats
		// Normalize by cycles on identical work? The RMW variant retires
		// two extra instructions per update, so compare by cycles of the
		// whole program against the serialized-full cycle count scaled by
		// instruction ratio — IPC ratios do that implicitly.
		rows[i] = RdpkruRow{
			Workload:         label(cat[i]),
			SpecMPKFull:      spFull.IPC() / base.IPC(),
			SpecMPKRdpkru:    spRMW.IPC() / base.IPC(),
			SerializedRdpkru: serRMW.IPC() / base.IPC(),
		}
	}
	return rows, nil
}

// RenderRdpkru prints the study.
func RenderRdpkru(rows []RdpkruRow) string {
	var b strings.Builder
	b.WriteString("RDPKRU study (§V-C6): pkey_set-style read-modify-write vs load-immediate updates\n")
	b.WriteString("(IPC normalized to the serialized machine with load-immediate updates)\n")
	fmt.Fprintf(&b, "%-24s %14s %16s %18s\n", "workload", "specmpk(imm)", "specmpk(rdpkru)", "serialized(rdpkru)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %13.3fx %15.3fx %17.3fx\n",
			r.Workload, r.SpecMPKFull, r.SpecMPKRdpkru, r.SerializedRdpkru)
	}
	b.WriteString("RDPKRU serialization claws back the speculative-WRPKRU gains — the paper's\n")
	b.WriteString("reason to let the compiler keep permission values in immediates (§V-C6).\n")
	return b.String()
}

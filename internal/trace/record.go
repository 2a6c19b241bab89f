package trace

import (
	"bytes"
	"fmt"
	"strings"

	"specmpk/internal/isa"
)

// Record is one retired instruction's per-stage timestamps, delivered by
// Machine.OnTrace in retirement order. The retire log, WriteKonata and
// Pipeview all read it.
type Record struct {
	Seq                                    uint64
	PC                                     uint64
	Inst                                   isa.Inst
	Fetch, Rename, Issue, Complete, Retire uint64
}

// stamps returns r's fetch, rename, issue, complete and retire cycles
// clamped to a monotone timeline that starts no earlier than origin (squash
// replays can reissue before the original rename timestamp). Both stage
// renderers draw from it.
func (r Record) stamps(origin uint64) [5]uint64 {
	s := [5]uint64{r.Fetch, r.Rename, r.Issue, r.Complete, r.Retire}
	for i := range s {
		s[i] = max(s[i], origin)
		origin = s[i]
	}
	return s
}

// Pipeview draws per-instruction pipeline diagrams (in the style of gem5's
// pipeview / Konata) against a shared time axis starting at the first
// record's fetch cycle:
//
//	seq      pc        F..R---I..C.W  inst
//
// F fetch, R rename, I issue/execute, C complete, W retire ("written
// back"); dots are in-flight wait cycles, dashes the rename-to-issue queue
// wait. The serialized machine's WRPKRU drain and SpecMPK's head replays
// are immediately visible in the gaps. maxWidth caps the diagram columns
// (0 = 100); a longer line is scaled into it, keeping its order.
func Pipeview(recs []Record, maxWidth int) string {
	if len(recs) == 0 {
		return "(no trace records)\n"
	}
	if maxWidth <= 0 {
		maxWidth = 100
	}
	base := recs[0].Fetch
	var b strings.Builder
	fmt.Fprintf(&b, "cycle origin %d; F=fetch R=rename I=issue C=complete W=retire\n", base)
	for _, r := range recs {
		var p [5]int
		for i, c := range r.stamps(base) {
			p[i] = int(c - base)
		}
		if w := p[4]; w >= maxWidth {
			for i := range p {
				p[i] = p[i] * (maxWidth - 1) / w
			}
		}
		line := bytes.Repeat([]byte{' '}, p[4]+1)
		for i := p[0]; i < p[3]; i++ {
			line[i] = '.'
			if i >= p[1] && i < p[2] {
				line[i] = '-'
			}
		}
		// Markers last so they overwrite the fillers.
		for i, c := range []byte("FRICW") {
			line[p[i]] = c
		}
		fmt.Fprintf(&b, "%6d  0x%06x  %s  %s\n", r.Seq, r.PC, line, r.Inst)
	}
	return b.String()
}

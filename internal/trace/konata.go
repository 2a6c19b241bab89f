package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Konata stage names, matching gem5's O3PipeViewer conventions so Konata's
// default colour map applies: F fetch, Rn rename/dispatch, Ex execute,
// Cm completion-to-commit wait.
const (
	stageFetch    = "F"
	stageRename   = "Rn"
	stageExecute  = "Ex"
	stageCommit   = "Cm"
	konataVersion = "0004"
)

// WriteKonata serializes the records in the Kanata log format that Konata
// (and gem5's o3-pipeview converter output) loads:
//
//	Kanata	0004
//	C=	<start cycle>
//	I	<id> <seq> <thread> / L label / S+E stage / C <delta> / R retire
//
// Records must be in retirement order (the order Machine.OnTrace delivers).
func WriteKonata(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Kanata\t%s\n", konataVersion)
	if len(recs) == 0 {
		return bw.Flush()
	}

	type ev struct {
		cycle uint64
		order int // emission order within a cycle: per record, in id order
		line  string
	}
	var evs []ev
	start := recs[0].Fetch
	for id, r := range recs {
		s := r.stamps(start)
		add := func(c uint64, format string, args ...any) {
			evs = append(evs, ev{cycle: c, order: id, line: fmt.Sprintf(format, args...)})
		}
		add(s[0], "I\t%d\t%d\t0", id, r.Seq)
		add(s[0], "L\t%d\t0\t%x: %s", id, r.PC, r.Inst)
		add(s[0], "S\t%d\t0\t%s", id, stageFetch)
		add(s[1], "S\t%d\t0\t%s", id, stageRename)
		add(s[2], "S\t%d\t0\t%s", id, stageExecute)
		add(s[3], "S\t%d\t0\t%s", id, stageCommit)
		add(s[4], "E\t%d\t0\t%s", id, stageCommit)
		add(s[4], "R\t%d\t%d\t0", id, r.Seq)
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].cycle != evs[j].cycle {
			return evs[i].cycle < evs[j].cycle
		}
		return evs[i].order < evs[j].order
	})

	fmt.Fprintf(bw, "C=\t%d\n", start)
	cur := start
	for _, e := range evs {
		if e.cycle > cur {
			fmt.Fprintf(bw, "C\t%d\n", e.cycle-cur)
			cur = e.cycle
		}
		fmt.Fprintln(bw, e.line)
	}
	return bw.Flush()
}

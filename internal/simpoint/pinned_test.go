package simpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// planDigest hashes everything a plan's two functional passes produce: the
// bits of every profiled interval's vector, the chosen points and their
// weights, and every checkpoint's position, registers, PC, PKRU, page delta,
// warm-up log and return-address stack.
func planDigest(intervals []Interval, p *Plan) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	put(uint64(len(intervals)))
	for _, iv := range intervals {
		put(iv.Index)
		for _, x := range iv.Vec {
			put(math.Float64bits(x))
		}
	}
	put(uint64(p.Intervals), p.TotalInsts, uint64(len(p.Points)))
	for _, pt := range p.Points {
		put(pt.Interval.Index, math.Float64bits(pt.Weight))
	}
	for _, c := range p.Checkpoints {
		put(c.Index, c.Insts, c.PC, uint64(c.PKRU))
		put(c.Regs[:]...)
		put(uint64(len(c.pages)))
		for _, pg := range c.pages {
			put(pg.vpn, uint64(pg.end))
		}
		put(uint64(len(c.pageData)))
		h.Write(c.pageData)
		put(uint64(c.warmN), uint64(len(c.warm)))
		h.Write(c.warm)
		put(uint64(len(c.RAS)))
		put(c.RAS...)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestCataloguePlansPinned pins both functional passes byte for byte: every
// catalogue program's DefaultConfig profile and plan must digest (planDigest)
// as testdata/catalogue_plans.sha256 records. A change to funcsim, the
// profile or the capture that moves any interval vector, point, weight or
// checkpoint byte fails here, naming the program. Regenerate deliberately
// with `go test ./internal/simpoint -run CataloguePlansPinned -update`.
func TestCataloguePlansPinned(t *testing.T) {
	plans, err := cataloguePlans()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, cp := range plans {
		intervals, err := Profile(cp.prog, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", cp.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", planDigest(intervals, cp.plan), cp.name)
	}
	path := filepath.Join("testdata", "catalogue_plans.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d plans)", path, len(plans))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pinned digests (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s pins %d plans, the catalogue has %d (regenerate with -update)", path, len(want), len(have))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("plan moved:\n got  %s\n want %s", have[i], want[i])
		}
	}
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"specmpk/internal/isa"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRingWrapAndDropped(t *testing.T) {
	r := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		r.Emit(Event{Cycle: i, Kind: KindSquash})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []uint64{3, 4, 5} {
		if evs[i].Cycle != want {
			t.Fatalf("Events()[%d].Cycle = %d, want %d (oldest first)", i, evs[i].Cycle, want)
		}
	}
}

func TestCountByKind(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: KindSquash})
	r.Emit(Event{Kind: KindSquash})
	r.Emit(Event{Kind: KindWrpkruRetire})
	got := r.CountByKind()
	if got[KindSquash] != 2 || got[KindWrpkruRetire] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: KindSquash, N: 12, Note: "mispredict"},
		{Cycle: 42, Kind: KindWrpkruRetire, Seq: 7, PC: 0x100, N: 0x5},
		{Cycle: 43, Kind: KindUpgradeOpen, Seq: 8, PC: 0x110, Pkey: KeyOf(0)},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var back []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, e)
	}
	if !slices.Equal(back, events) {
		t.Fatalf("round trip = %+v, want %+v", back, events)
	}
	// Zero-valued optional fields must be omitted so traces stay compact.
	var raw map[string]any
	if err := json.Unmarshal([]byte(firstLine(t, events)), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["seq"]; ok {
		t.Fatalf("zero seq not omitted: %v", raw)
	}
	// A keyless event carries no pkey; key 0 prints as 0.
	if _, ok := raw["pkey"]; ok {
		t.Fatalf("keyless event printed a pkey: %v", raw)
	}
	if line := firstLine(t, events[2:]); !strings.Contains(line, `"pkey":0`) {
		t.Fatalf("key 0 line = %s", line)
	}
}

func firstLine(t *testing.T, events []Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events[:1]); err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(buf.String(), "\n")
	return line
}

func TestWriteKonataGolden(t *testing.T) {
	// A tiny hand-built retirement stream: i1 overlaps i0, and i2's rename
	// timestamp precedes its (post-squash) fetch to exercise the monotone
	// clamping.
	recs := []Record{
		{Seq: 0, PC: 0x100, Inst: isa.Inst{Op: isa.OpAddi, Rd: 1, Imm: 1}, Fetch: 5, Rename: 6, Issue: 7, Complete: 8, Retire: 9},
		{Seq: 1, PC: 0x104, Inst: isa.Inst{Op: isa.OpLd, Rd: 2, Rs1: 1}, Fetch: 5, Rename: 6, Issue: 8, Complete: 12, Retire: 13},
		{Seq: 2, PC: 0x108, Inst: isa.Inst{Op: isa.OpWrpkru, Rs1: 2}, Fetch: 11, Rename: 7, Issue: 14, Complete: 15, Retire: 16},
	}
	var buf bytes.Buffer
	if err := WriteKonata(&buf, recs); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "konata.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Konata output drifted from golden (re-bless with -update):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWriteKonataEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKonata(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "Kanata\t0004\n" {
		t.Fatalf("empty trace = %q", got)
	}
}

func TestNewRingPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	NewRing(0)
}

func TestRingWraparoundJSONLWellFormed(t *testing.T) {
	// Fill far past capacity — several full wraps plus a partial one — and
	// assert the survivors are exactly the newest `cap` events in order and
	// that the JSONL export of a wrapped ring stays well-formed.
	const capacity = 7
	const emitted = 3*capacity + 4
	r := NewRing(capacity)
	for i := 0; i < emitted; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindTLBDefer, Seq: uint64(i), Note: "w"})
	}
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if want := uint64(emitted - capacity); r.Dropped() != want {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), want)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	next := uint64(emitted - capacity) // oldest survivor
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", sc.Text(), err)
		}
		if e.Cycle != next || e.Seq != next {
			t.Fatalf("line %d: got cycle %d, want %d (oldest-first order)", lines, e.Cycle, next)
		}
		next++
		lines++
	}
	if lines != capacity {
		t.Fatalf("exported %d lines, want %d", lines, capacity)
	}
}

func TestWriteJSONLRows(t *testing.T) {
	type row struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	var buf bytes.Buffer
	if err := WriteJSONLRows(&buf, []row{{"a", 1}, {"b", 2}}); err != nil {
		t.Fatal(err)
	}
	want := "{\"name\":\"a\",\"n\":1}\n{\"name\":\"b\",\"n\":2}\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// TestBufferGrowsAsItFills: a buffer's storage follows what it holds, so a
// large bound (-trace-buf's default is 2^20 events) costs nothing until it
// is used.
func TestBufferGrowsAsItFills(t *testing.T) {
	b := NewBuffer[Event](1 << 20)
	for i := 0; i < 10; i++ {
		b.Push(Event{Seq: uint64(i)})
	}
	if c := cap(b.buf); c > 64 {
		t.Fatalf("10 values held in a backing array of %d", c)
	}
	if got := b.All(); len(got) != 10 || got[0].Seq != 0 || got[9].Seq != 9 {
		t.Fatalf("All = %+v", got)
	}
}

package mem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// byteWise is the reference the page-wise bulk copies must match: the
// Read8/Write8 loops ReadBytes and WriteBytes once were.
type byteWise struct{ m *PhysMem }

func (r byteWise) read(paddr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.m.Read8(paddr + uint64(i))
	}
	return out
}

func (r byteWise) write(paddr uint64, b []byte) {
	for i, v := range b {
		r.m.Write8(paddr+uint64(i), v)
	}
}

// frameSet lists the materialized frame numbers.
func frameSet(m *PhysMem) map[uint64]bool {
	out := make(map[uint64]bool, len(m.frames))
	for ppn := range m.frames {
		out[ppn] = true
	}
	return out
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// TestPhysBulkMatchesByteWise: page-crossing and multi-page writes land the
// same bytes and materialize the same frames as a byte-wise loop, and reads
// across present and absent frames return the same bytes.
func TestPhysBulkMatchesByteWise(t *testing.T) {
	writes := []struct {
		addr uint64
		n    int
	}{
		{0, PageSize},                    // exactly one frame
		{3*PageSize - 5, 10},             // crosses one boundary
		{5*PageSize + 100, 3 * PageSize}, // starts mid-page, spans four frames
		{9 * PageSize, 1},
		{12*PageSize - 1, PageSize + 2}, // one byte, a whole frame, one byte
		{^uint64(0) - 2, 6},             // wraps past the top of the address space
	}
	bulk, ref := NewPhysMem(), NewPhysMem()
	for i, w := range writes {
		data := pattern(w.n, byte(i+1))
		bulk.WriteBytes(w.addr, data)
		byteWise{ref}.write(w.addr, data)
		if got, want := frameSet(bulk), frameSet(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("write %d: frames %v, byte-wise reference has %v", i, got, want)
		}
	}
	for i, w := range writes {
		for _, r := range []struct {
			addr uint64
			n    int
		}{{w.addr, w.n}, {w.addr - PageSize/2, w.n + PageSize}} {
			if got, want := bulk.ReadBytes(r.addr, r.n), (byteWise{ref}).read(r.addr, r.n); !bytes.Equal(got, want) {
				t.Fatalf("read of write %d at 0x%x+%d differs from the byte-wise reference", i, r.addr, r.n)
			}
		}
	}
	if bulk.FrameCount() != ref.FrameCount() {
		t.Fatalf("reads changed the frame count: %d vs %d", bulk.FrameCount(), ref.FrameCount())
	}
}

// TestPhysBulkAbsentFrames: a read over absent frames returns zeros and
// materializes nothing, also when it straddles a present frame.
func TestPhysBulkAbsentFrames(t *testing.T) {
	m := NewPhysMem()
	got := m.ReadBytes(PageSize-7, 3*PageSize)
	if !bytes.Equal(got, make([]byte, 3*PageSize)) {
		t.Fatal("absent frames must read as zeros")
	}
	if m.FrameCount() != 0 {
		t.Fatalf("read materialized %d frames", m.FrameCount())
	}
	mid := pattern(PageSize, 9)
	m.WriteBytes(2*PageSize, mid)
	got = m.ReadBytes(PageSize, 3*PageSize)
	want := append(append(make([]byte, PageSize), mid...), make([]byte, PageSize)...)
	if !bytes.Equal(got, want) {
		t.Fatal("read around one present frame returned the wrong bytes")
	}
	if m.FrameCount() != 1 {
		t.Fatalf("FrameCount %d after one written frame, want 1", m.FrameCount())
	}
}

// TestPhysBulkZeroLength: empty copies touch nothing.
func TestPhysBulkZeroLength(t *testing.T) {
	m := NewPhysMem()
	m.WriteBytes(0x5000, nil)
	m.WriteBytes(0x6000, []byte{})
	if got := m.ReadBytes(0x7000, 0); got == nil || len(got) != 0 {
		t.Fatalf("zero-length read = %v, want an empty slice", got)
	}
	if m.FrameCount() != 0 {
		t.Fatalf("zero-length copies materialized %d frames", m.FrameCount())
	}
}

// FuzzPhysMemBytes interleaves Write8, Write64, WriteBytes and ReadBytes over
// a few pages (near address 0 or the top of the address space) and checks
// every read and the materialized frames against a flat byte-array model.
func FuzzPhysMemBytes(f *testing.F) {
	f.Add([]byte{2, 0xf0, 0x0f, 0x10, 0x20, 3, 0xf8, 0x0f, 0x20, 0x10})
	f.Add([]byte{1, 0xfc, 0x0f, 7, 0, 3, 0, 0, 0, 0x30, 0x82, 0x01, 0x00, 0x40, 0x00})
	f.Add([]byte{0, 0xff, 0x3f, 0x5a, 0, 3, 0x00, 0x3f, 0x00, 0x20, 0x86, 0x00, 0xf0, 0xff, 0x2f})
	const (
		span   = 4 * PageSize // where an op may start, from 0 or from top
		maxLen = 2 * PageSize // longest copy
		maxOps = 32           // bounds one input's cost
	)
	top := ^uint64(span - 1)
	// The model holds the low window, [0, span+maxLen), then the top one.
	slot := func(a uint64) int {
		if a >= top {
			return span + maxLen + int(a-top)
		}
		return int(a)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewPhysMem()
		model := make([]byte, 2*span+maxLen)
		frames := map[uint64]bool{}
		store := func(addr uint64, b []byte) {
			for i, v := range b {
				a := addr + uint64(i)
				model[slot(a)] = v
				if i == 0 || a&(PageSize-1) == 0 {
					frames[a>>PageBits] = true
				}
			}
		}
		for k := 0; k < maxOps && len(ops) >= 5; k++ {
			op, off, n := ops[0], uint64(binary.LittleEndian.Uint16(ops[1:]))%span, int(binary.LittleEndian.Uint16(ops[3:]))%maxLen
			ops = ops[5:]
			addr := off
			if op&0x80 != 0 {
				addr = top + off // copies from here can wrap to 0
			}
			switch op & 3 {
			case 0:
				m.Write8(addr, byte(n))
				store(addr, []byte{byte(n)})
			case 1:
				v := uint64(n) * 0x9E3779B97F4A7C15
				m.Write64(addr, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				store(addr, b[:])
			case 2:
				b := pattern(n, op)
				m.WriteBytes(addr, b)
				store(addr, b)
			case 3:
				got := m.ReadBytes(addr, n)
				for i, v := range got {
					if want := model[slot(addr+uint64(i))]; v != want {
						t.Fatalf("ReadBytes(0x%x, %d)[%d] = %d, model has %d", addr, n, i, v, want)
					}
				}
			}
			if got := frameSet(m); !reflect.DeepEqual(got, frames) {
				t.Fatalf("after op %d at 0x%x+%d: frames %v, model has %v", op&3, addr, n, got, frames)
			}
		}
	})
}

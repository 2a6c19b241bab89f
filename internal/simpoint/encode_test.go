package simpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

// warmRecordsFrom turns fuzz bytes into a warm-up log: per record one control
// byte picks the kind (every kind, Taken on any of them) and how the PC and
// the address move — sequentially, by a small signed step, to an arbitrary
// 64-bit value read from the input, or not at all. Only the kinds that carry
// an address get one, as the capturer writes them.
func warmRecordsFrom(data []byte) []warmRecord {
	var recs []warmRecord
	var pc, addr uint64
	next64 := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	next8 := func() int8 {
		if len(data) == 0 {
			return 0
		}
		v := int8(data[0])
		data = data[1:]
		return v
	}
	step := func(v *uint64, mode byte, unit uint64) {
		switch mode {
		case 0:
			*v += unit
		case 1:
			*v += uint64(int64(next8())) * unit
		case 2:
			*v = next64()
		}
	}
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		r := warmRecord{kind: c % 5, taken: c&0x08 != 0}
		step(&pc, c>>4&3, isa.InstBytes)
		r.pc = pc
		if carriesAddr(r.kind) {
			step(&addr, c>>6, 8)
			r.addr = addr
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzWarmLog: any warm-up log round-trips exactly through the encoding and
// never takes more than the 24 bytes a record took unencoded.
func FuzzWarmLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x0b, 0x02, 0x03, 0x04}) // every kind, sequential PCs
	extreme := []byte{0xa4}                           // a store with a full PC and address
	for _, v := range []uint64{math.MaxUint64, 0} {
		extreme = binary.LittleEndian.AppendUint64(extreme, v)
	}
	extreme = append(extreme, 0xac) // a taken indirect jump back the other way
	for _, v := range []uint64{0, math.MaxUint64} {
		extreme = binary.LittleEndian.AppendUint64(extreme, v)
	}
	extreme = binary.LittleEndian.AppendUint64(append(extreme, 0x2e), 1<<63) // a taken branch at 2^63
	f.Add(extreme)
	f.Add([]byte{0x53, 0x80, 0x5b, 0x7f, 0x94, 0x01, 0xf3, 0xdc}) // small steps both ways
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := warmRecordsFrom(data)
		var enc warmEncoder
		for _, r := range recs {
			enc.add(r)
		}
		if enc.n != len(recs) {
			t.Fatalf("encoder counted %d of %d records", enc.n, len(recs))
		}
		if len(enc.buf) > 24*len(recs) {
			t.Fatalf("%d records encoded to %d bytes, over 24 per record", len(recs), len(enc.buf))
		}
		d := warmDecoder{buf: enc.buf}
		for i, want := range recs {
			got, ok := d.next()
			if !ok {
				t.Fatalf("log ended after %d of %d records", i, len(recs))
			}
			if got != want {
				t.Fatalf("record %d decoded as %+v, want %+v", i, got, want)
			}
		}
		if _, ok := d.next(); ok {
			t.Fatalf("log decodes more than its %d records", len(recs))
		}
	})
}

// pageFrom turns fuzz bytes into a page: after the first byte, either the
// bytes themselves from the page start, or (first byte odd) a list of
// (word index, byte offset, value) writes that scatters short runs.
func pageFrom(data []byte) []byte {
	page := make([]byte, mem.PageSize)
	if len(data) == 0 {
		return page
	}
	mode, data := data[0], data[1:]
	if mode&1 == 0 {
		copy(page, data)
		return page
	}
	for ; len(data) >= 4; data = data[4:] {
		w := int(binary.LittleEndian.Uint16(data)) % pageWords
		page[8*w+int(data[2]&7)] = data[3]
	}
	return page
}

// FuzzPageDelta: any page round-trips through its nonzero-word runs, an
// all-zero page encodes to nothing, and decoding arbitrary bytes returns an
// error instead of panicking.
func FuzzPageDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0xff}, mem.PageSize)...))
	f.Add([]byte{1, 0, 0, 0, 1, 0xff, 0x01, 7, 2, 0x10, 0x01, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		page := pageFrom(data)
		runs := encodePage(nil, page)
		if len(runs) != 0 && bytes.Equal(page, make([]byte, mem.PageSize)) {
			t.Fatalf("an all-zero page encoded to %d bytes", len(runs))
		}
		got := bytes.Repeat([]byte{0xa5}, mem.PageSize)
		if err := decodePage(got, runs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page) {
			t.Fatal("page did not round-trip")
		}
		_ = decodePage(got, data)
	})
}

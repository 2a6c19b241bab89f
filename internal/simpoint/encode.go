package simpoint

import (
	"encoding/binary"
	"errors"

	"specmpk/internal/isa"
	"specmpk/internal/mem"
)

// A checkpoint holds its two bulky layers encoded. The warm-up log is
// mostly sequential fetches and nearby addresses, and a written page is
// mostly zero words, so both shrink by an order of magnitude: over the
// catalogue at DefaultConfig a record takes 1.2–1.6 bytes instead of 24,
// and a written page 6.5% of its 4 KiB.

// Warm-log record header: the kind in the low three bits, then the branch
// outcome, then whether the PC is the previous record's plus one
// instruction.
const (
	warmKindMask uint8 = 0x7
	warmTakenBit uint8 = 1 << 3
	warmSeqBit   uint8 = 1 << 4
)

// carriesAddr reports whether records of kind k carry Addr.
func carriesAddr(k uint8) bool { return k == warmIndirect || k == warmLoad || k == warmStore }

// warmEncoder appends records to an encoded warm-up log: per record, the
// header byte; unless the sequential bit is set, the PC as a zigzag varint
// delta from the previous record's PC; and for indirect, load and store
// records, Addr as a zigzag varint delta from the previous such record's.
// Both deltas start from zero. A record therefore takes at most 21 bytes
// (header and two 10-byte varints), and a sequential fetch one.
type warmEncoder struct {
	buf      []byte
	n        int
	pc, addr uint64
}

func (e *warmEncoder) add(r warmRecord) {
	h := r.kind & warmKindMask
	if r.taken {
		h |= warmTakenBit
	}
	seq := r.pc == e.pc+isa.InstBytes
	if seq {
		h |= warmSeqBit
	}
	e.buf = append(e.buf, h)
	if !seq {
		e.buf = binary.AppendVarint(e.buf, int64(r.pc-e.pc))
	}
	e.pc = r.pc
	if carriesAddr(r.kind) {
		e.buf = binary.AppendVarint(e.buf, int64(r.addr-e.addr))
		e.addr = r.addr
	}
	e.n++
}

// warmDecoder reads back what a warmEncoder wrote, oldest record first.
type warmDecoder struct {
	buf      []byte
	pc, addr uint64
}

// next decodes one record; ok is false at the end of the log. A truncated
// or overlong varint panics: logs come only from warmEncoder and are never
// modified.
func (d *warmDecoder) next() (r warmRecord, ok bool) {
	if len(d.buf) == 0 {
		return r, false
	}
	h := d.buf[0]
	d.buf = d.buf[1:]
	r.kind, r.taken = h&warmKindMask, h&warmTakenBit != 0
	if h&warmSeqBit != 0 {
		d.pc += isa.InstBytes
	} else {
		d.pc += uint64(d.varint())
	}
	r.pc = d.pc
	if carriesAddr(r.kind) {
		d.addr += uint64(d.varint())
		r.addr = d.addr
	}
	return r, true
}

func (d *warmDecoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		panic("simpoint: corrupt warm-up log")
	}
	d.buf = d.buf[n:]
	return v
}

// pageWords is the number of 8-byte words in a page.
const pageWords = mem.PageSize / 8

// encodePage appends page (mem.PageSize bytes) to dst as its runs of
// nonzero 8-byte words: per run, the count of zero words since the previous
// run (or the page start) and the run's length in words, both uvarints,
// then the run's bytes. An all-zero page appends nothing.
func encodePage(dst, page []byte) []byte {
	zero := func(w int) bool { return binary.LittleEndian.Uint64(page[8*w:]) == 0 }
	last := 0 // word just past the previous run
	for w := 0; w < pageWords; w++ {
		if zero(w) {
			continue
		}
		start := w
		for w < pageWords && !zero(w) {
			w++
		}
		dst = binary.AppendUvarint(dst, uint64(start-last))
		dst = binary.AppendUvarint(dst, uint64(w-start))
		dst = append(dst, page[8*start:8*w]...)
		last = w
	}
	return dst
}

var errCorruptPage = errors.New("simpoint: corrupt page delta")

// decodePage rebuilds into page (mem.PageSize bytes) the whole page that
// encodePage encoded as runs: every word outside a run is zero.
func decodePage(page, runs []byte) error {
	clear(page)
	w := 0
	for len(runs) > 0 {
		gap, n := binary.Uvarint(runs)
		if n <= 0 || gap > uint64(pageWords-w) {
			return errCorruptPage
		}
		runs = runs[n:]
		w += int(gap)
		cnt, n := binary.Uvarint(runs)
		if n <= 0 || cnt > uint64(pageWords-w) || uint64(len(runs)-n) < 8*cnt {
			return errCorruptPage
		}
		runs = runs[n:]
		w += copy(page[8*w:], runs[:8*cnt]) / 8
		runs = runs[8*cnt:]
	}
	return nil
}

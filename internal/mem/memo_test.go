package mem

import (
	"errors"
	"math/rand/v2"
	"testing"

	"specmpk/internal/mpk"
)

// TestPageMemoMatchesTranslate: the memo answers every access as
// AddressSpace.Translate does, including a different access kind on the
// page it remembers (a store after a load on a read-only page, a fetch from
// a data page) and unmapped pages, and still does after the page table
// changes under it midway: a key change, an unmap and two maps.
func TestPageMemoMatchesTranslate(t *testing.T) {
	as := NewAddressSpace()
	as.Map(0x1000, PageSize, ProtRW)
	as.Map(0x2000, PageSize, ProtRX)
	as.Map(0x3000, PageSize, ProtRead)
	var memo Memo
	check := func(phase string) {
		for _, addr := range []uint64{0x1008, 0x1010, 0x2000, 0x2ff8, 0x3010, 0x3018, 0x4000, 0x4008, 0x3000, 0x1000} {
			for _, a := range []AccessKind{Read, Write, Exec, Read} {
				wantPA, wantPTE, err := as.Translate(addr, a)
				gotPA, gotPTE, ok := memo.Translate(as, addr, a)
				if ok != (err == nil) || ok && (gotPA != wantPA || gotPTE != wantPTE) {
					t.Fatalf("%s: %v at %#x: memo says (%#x, %+v, %v), Translate (%#x, %+v, %v)",
						phase, a, addr, gotPA, gotPTE, ok, wantPA, wantPTE, err)
				}
			}
		}
	}
	check("before")
	key, err := as.PkeyAlloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := as.PkeyMprotect(0x1000, PageSize, ProtRW, key); err != nil {
		t.Fatal(err)
	}
	as.Unmap(0x2000, PageSize)
	as.Map(0x3000, PageSize, ProtRW) // a fresh frame under a remembered page
	as.Map(0x4000, PageSize, ProtRW)
	check("after")
}

// TestMemoLoadStoreMatchAccess drives two identical address spaces with one
// random sequence: loads and stores through a Memo on one, through
// AddressSpace.Access and PhysMem on the other, under random PKRU values,
// with page-table changes and WriteVirt64 calls (which can create a frame
// the memo saw absent) mixed in. Every fault, loaded value and frame count
// must agree.
func TestMemoLoadStoreMatchAccess(t *testing.T) {
	build := func() *AddressSpace {
		as := NewAddressSpace()
		as.Map(0x10000, 4*PageSize, ProtRW)
		as.Map(0x14000, PageSize, ProtRead)
		for k := 1; k <= 2; k++ {
			if _, err := as.PkeyAlloc(); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.PkeyMprotect(0x12000, PageSize, ProtRW, 1); err != nil {
			t.Fatal(err)
		}
		return as
	}
	got, want := build(), build()
	var memo Memo
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20_000; i++ {
		vaddr := 0x10000 - 16 + r.Uint64N(5*PageSize+32)
		if r.IntN(4) == 0 {
			vaddr = 0x10000 + uint64(r.IntN(5))*PageSize - uint64(r.IntN(8)) // page-crossing words
		}
		pkru := mpk.AllowAll
		if r.IntN(3) == 0 {
			pkru = mpk.PKRU(r.Uint32())
		}
		size := 8
		if r.IntN(3) == 0 {
			size = 1
		}
		switch op := r.IntN(40); {
		case op < 16:
			v, f := memo.Load(got, vaddr, size, pkru)
			var wv uint64
			paddr, _, err := want.Access(vaddr, Read, pkru)
			if err == nil {
				if size == 1 {
					wv = uint64(want.Phys.Read8(paddr))
				} else {
					wv = want.Phys.Read64(paddr)
				}
			}
			sameFault(t, i, f, err)
			if v != wv {
				t.Fatalf("op %d: Load(%#x, %d) = %#x, want %#x", i, vaddr, size, v, wv)
			}
		case op < 32:
			v := r.Uint64()
			f := memo.Store(got, vaddr, size, v, pkru)
			paddr, _, err := want.Access(vaddr, Write, pkru)
			if err == nil {
				if size == 1 {
					want.Phys.Write8(paddr, byte(v))
				} else {
					want.Phys.Write64(paddr, v)
				}
			}
			sameFault(t, i, f, err)
		case op < 36:
			v := r.Uint64()
			a, b := got.WriteVirt64(vaddr, v), want.WriteVirt64(vaddr, v)
			if (a == nil) != (b == nil) {
				t.Fatalf("op %d: WriteVirt64 disagrees: %v vs %v", i, a, b)
			}
		case op < 38:
			page := 0x10000 + uint64(r.IntN(5))*PageSize
			key := r.IntN(3)
			prot := Prot(r.IntN(4))
			a, b := got.PkeyMprotect(page, PageSize, prot, key), want.PkeyMprotect(page, PageSize, prot, key)
			if (a == nil) != (b == nil) {
				t.Fatalf("op %d: PkeyMprotect disagrees: %v vs %v", i, a, b)
			}
		case op < 39:
			page := 0x10000 + uint64(r.IntN(5))*PageSize
			got.Unmap(page, PageSize)
			want.Unmap(page, PageSize)
		default:
			page := 0x10000 + uint64(r.IntN(5))*PageSize
			got.Map(page, PageSize, ProtRW)
			want.Map(page, PageSize, ProtRW)
		}
		if got.Phys.FrameCount() != want.Phys.FrameCount() {
			t.Fatalf("op %d: %d frames, want %d", i, got.Phys.FrameCount(), want.Phys.FrameCount())
		}
	}
}

// sameFault fails unless the memo's fault f and Access's err agree.
func sameFault(t *testing.T, i int, f *Fault, err error) {
	t.Helper()
	var want *Fault
	errors.As(err, &want)
	if (f == nil) != (want == nil) || f != nil && *f != *want {
		t.Fatalf("op %d: memo fault %v, Access %v", i, f, err)
	}
}
